package main

import (
	"math"
	"sort"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlTables      = "tables"
	wlSimPlain    = "sim-plain"
	wlServeReplay = "serve-replay"
	wlDSEFleet    = "dse-fleet"
)

var workloadNames = []string{wlTables, wlSimPlain, wlServeReplay, wlDSEFleet}

// e2eMetric is a metric a user of the simulator sees. Bound is the
// share of the parent's median by which it may worsen before a change
// counts as a regression.
type e2eMetric struct {
	Name, Unit, Better string
	Bound              float64
}

// Every e2e metric is reported on every workload. An operation is the
// unit of work a user of the workload waits for: one full table sweep
// (tables), one benchmark simulation (sim-plain), one /v1/sim request
// (serve-replay), one remote candidate evaluation (dse-fleet).
var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"guest_mips", "Minstr/s", "higher", 0.25},
	{"alloc_mb", "MB", "lower", 0.1},
}

// layerMetric is a per-layer metric of the traced run. Moves names the
// end-to-end metric it should move and On the workloads where it
// should move it (the README gives the reasoning).
type layerMetric struct {
	Name, Unit, Better string
	Moves              []string
	On                 []string
}

func lm(name, unit, better string, moves, on []string) layerMetric {
	return layerMetric{name, unit, better, moves, on}
}

var (
	onTables = []string{wlTables}
	onSim    = []string{wlSimPlain}
	onServe  = []string{wlServeReplay}
	onDSE    = []string{wlDSEFleet}
	exactOn  = []string{wlSimPlain, wlServeReplay}
)

// layerMetrics lists every per-layer metric a traced run prints.
var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		lm("cc.compile_ms", "ms", "lower", []string{"latency_p50_ms", "setup_s"}, []string{wlServeReplay, wlSimPlain}),
		lm("asm.assemble_ms", "ms", "lower", []string{"latency_p50_ms", "setup_s"}, []string{wlServeReplay, wlSimPlain}),
		lm("sched.schedule_ms", "ms", "lower", []string{"latency_p50_ms", "setup_s"}, []string{wlServeReplay, wlSimPlain}),
		lm("cpu.predecode_ms", "ms", "lower", []string{"latency_p50_ms", "setup_s"}, []string{wlServeReplay, wlSimPlain}),
		lm("workload.build_ms", "ms", "lower", []string{"setup_s", "wall_s"}, []string{wlSimPlain, wlTables}),
		lm("cpu.superblock.ns_per_instr", "ns", "lower", []string{"guest_mips"}, onSim),
		lm("cpu.fast.ns_per_instr", "ns", "lower", []string{"wall_s", "alloc_mb"}, onTables),
		lm("cpu.profiled.ns_per_instr", "ns", "lower", []string{"wall_s", "alloc_mb"}, onTables),
		lm("cpu.asbr.ns_per_instr", "ns", "lower", []string{"wall_s", "latency_p95_ms"}, []string{wlTables, wlDSEFleet, wlServeReplay}),
		lm("cpu.reference.ns_per_instr", "ns", "lower", nil, nil),
		// Measured from sim-plain's own runs there; on every other
		// workload it is the probe's run mix, because the sweep and the
		// daemons do not let a caller see the engine a run resolved to.
		lm("cpu.superblock_share", "ratio", "higher", []string{"wall_s"}, []string{wlTables, wlDSEFleet}),
		lm("obs.branchacct.ns_per_instr", "ns", "lower", []string{"wall_s"}, onTables),
	}
	for _, p := range predictFamilies {
		ms = append(ms, lm("predict."+p+".ns_per_branch", "ns", "lower", []string{"wall_s", "latency_p95_ms"}, []string{wlTables, wlServeReplay}))
	}
	ms = append(ms,
		lm("profile.select_ms", "ms", "lower", []string{"latency_p95_ms", "wall_s"}, []string{wlServeReplay, wlTables}),
		lm("runner.artifact_hit_ratio", "ratio", "higher", []string{"wall_s"}, onTables),
	)
	for _, t := range tablesRun {
		ms = append(ms, lm("experiment."+t+"_s", "s", "lower", []string{"wall_s"}, onTables))
	}
	ms = append(ms,
		lm("experiment.encode_ms", "ms", "lower", []string{"wall_s"}, onTables),
		lm("serve.sim_ms.bench", "ms", "lower", []string{"latency_p50_ms", "latency_p95_ms"}, onServe),
		lm("serve.sim_ms.asbr", "ms", "lower", []string{"latency_p50_ms", "latency_p95_ms"}, onServe),
		lm("serve.sim_ms.source", "ms", "lower", []string{"latency_p50_ms", "latency_p95_ms"}, onServe),
		lm("serve.queue_depth_max", "count", "lower", []string{"latency_p95_ms"}, onServe),
		lm("serve.cache_hit_ratio", "ratio", "higher", []string{"req_per_s"}, onServe),
		lm("serve.rejected", "count", "lower", []string{"req_per_s"}, onServe),
		lm("corpus.runbench_ms", "ms", "lower", []string{"wall_s"}, onDSE),
		lm("dse.eval_ms", "ms", "lower", []string{"wall_s"}, onDSE),
		lm("dse.dispatch_overhead_ms", "ms", "lower", []string{"wall_s"}, onDSE),
		// Exact simulated counts: they explain guest_mips (every miss
		// or mispredict exits the fused loop) and must not move under a
		// host-speed change.
		lm("core.fold_rate", "ratio", "higher", []string{"guest_mips"}, exactOn),
		lm("core.folded_per_kinstr", "1/kinstr", "higher", []string{"guest_mips"}, exactOn),
		lm("predict.mispredict_rate", "ratio", "lower", []string{"guest_mips"}, exactOn),
		lm("mem.icache_miss_rate", "ratio", "lower", []string{"guest_mips"}, exactOn),
		lm("mem.dcache_miss_rate", "ratio", "lower", []string{"guest_mips"}, exactOn),
		lm("trace.overhead_s", "s", "lower", nil, nil),
	)
	return ms
}()

// predictFamilies are the zoo predictors timed as Predict+Update pairs.
var predictFamilies = []string{"bimodal", "gshare", "tage", "loop", "tageloop"}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
