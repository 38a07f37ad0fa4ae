// Command perfbench is the repository benchmark: it runs one named
// workload in-process, measures it from outside by timing calls into
// the simulator's packages, checks every output against an oracle, and
// prints one JSON result line.
//
//	perfbench --workload tables --seed 1 --seconds 10 --trace 0
//	perfbench --workload serve-replay --seed 1 --seconds 10 --trace 1 --spans .bench_build/spans
//	perfbench --gen-replay testdata/replay.jsonl
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, from a separate traced
// half of the run. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// op is one user-visible operation of a pass and its latency.
type op struct {
	kind string
	ms   float64
}

// passOut is what one pass reports. wall is the timed region, which
// excludes the output comparison the workload makes afterwards.
type passOut struct {
	wall   time.Duration
	ops    []op
	instrs uint64 // guest instructions committed in the results
	failed int    // operations that failed or produced a wrong output
}

// bench is one workload bound to a seed and a size.
type bench interface {
	// setup builds what the next pass uses. It runs before every pass,
	// and may run more than once before one; each run replaces (and
	// stops) what the last one built.
	setup() error
	// pass runs one timed unit of work; tr is nil when untraced.
	pass(tr *tracer) (passOut, error)
	// check runs the workload's end-of-run correctness oracle, outside
	// any timed region (traced when tr is non-nil).
	check(tr *tracer) error
	// layers adds the per-layer metrics this workload measures itself
	// from its traced passes, without overwriting existing entries.
	layers(tr *tracer, m metricSet)
	// report prints workload-specific findings for a human reader.
	report()
}

// newBench builds the named workload at full or smoke size.
func newBench(name string, seed int64, tiny bool) (bench, error) {
	switch name {
	case wlTables:
		return newTables(seed, tiny), nil
	case wlSimPlain:
		return newSimPlain(seed, tiny), nil
	case wlServeReplay:
		return newServeReplay(seed, tiny), nil
	case wlDSEFleet:
		return newDSEFleet(seed, tiny), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// metricSet maps metric names to values; set never overwrites, so the
// first source to report a metric wins.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) {
	if _, ok := m[name]; !ok {
		m[name] = v
	}
}

// measured is the outcome of a run of passes.
type measured struct {
	passes []passOut
	setups []passOut // the set-ups before the passes; only wall is set
	allocs []float64 // MB allocated per pass
}

func (r *measured) ops() int {
	n := 0
	for _, p := range r.passes {
		n += len(p.ops)
	}
	return n
}

func (r *measured) failed() int {
	n := 0
	for _, p := range r.passes {
		n += p.failed
	}
	return n
}

func (r *measured) medianWall() float64 {
	var w []float64
	for _, p := range r.passes {
		w = append(w, p.wall.Seconds())
	}
	return median(w)
}

// Before each pass, set-up runs setupMin times, or fewer once
// setupBudget of set-up time is spent (at least once): cheap set-ups,
// such as starting daemons, so still give enough samples for a steady
// median.
const (
	setupMin    = 5
	setupBudget = 20 * time.Millisecond
)

// measure runs set-up and a pass, in turn, until seconds have elapsed
// (at least minPasses times). Setting up before every pass spreads the
// set-up samples over the run as the passes are.
func measure(b bench, seconds float64, minPasses int, tr *tracer) (*measured, error) {
	r := &measured{}
	start := time.Now()
	for len(r.passes) < minPasses || time.Since(start).Seconds() < seconds {
		runtime.GC()
		var spent time.Duration
		for i := 0; i < setupMin && (i == 0 || spent < setupBudget); i++ {
			t0 := time.Now()
			if err := b.setup(); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			d := time.Since(t0)
			spent += d
			r.setups = append(r.setups, passOut{wall: d})
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		out, err := b.pass(tr)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		r.passes = append(r.passes, out)
		r.allocs = append(r.allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	}
	return r, nil
}

// e2e computes the end-to-end metrics of a measured run.
func (r *measured) e2e() metricSet {
	var lat []float64
	var total float64
	var instrs uint64
	for _, p := range r.passes {
		total += p.wall.Seconds()
		instrs += p.instrs
		for _, o := range p.ops {
			lat = append(lat, o.ms)
		}
	}
	return metricSet{
		"setup_s":        (&measured{passes: r.setups}).medianWall(),
		"wall_s":         r.medianWall(),
		"req_per_s":      ratio(float64(len(lat)), total),
		"latency_p50_ms": median(lat),
		"latency_p95_ms": quantile(lat, 0.95),
		"guest_mips":     ratio(float64(instrs)/1e6, total),
		"alloc_mb":       median(r.allocs),
	}
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	wl := flag.String("workload", "", "workload to run: tables|sim-plain|serve-replay|dse-fleet")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed passes run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	spans := flag.String("spans", "", "traced run: directory the span log is written to")
	gen := flag.String("gen-replay", "", "write the serve-replay traffic log to this path and exit")
	flag.Parse()

	if *gen != "" {
		if err := writeReplay(*gen, replaySeed); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	res, err := run(*wl, *seed, *seconds, *trace == 1, *spans)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// run executes one benchmark run and assembles its result.
func run(wl string, seed int64, seconds float64, traced bool, spansDir string) (*result, error) {
	b, err := newBench(wl, seed, false)
	if err != nil {
		return nil, err
	}
	var oracleErrs []error
	res := &result{Metrics: make(map[string]metricValue)}
	if !traced {
		m, err := measure(b, seconds, 3, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl, err)
		}
		if err := b.check(nil); err != nil {
			oracleErrs = append(oracleErrs, err)
		}
		vals := m.e2e()
		fmt.Printf("workload %s seed %d: %d passes, %d operations (%d failed)\n", wl, seed, len(m.passes), m.ops(), m.failed())
		for _, e := range e2eMetrics {
			res.Metrics[e.Name] = metricValue{vals[e.Name], e.Unit}
			fmt.Printf("  %-16s %14.4f %s\n", e.Name, vals[e.Name], e.Unit)
		}
		fmt.Printf("  %-16s %14.4f\n", "error_rate", ratio(float64(m.failed()), float64(m.ops())))
		res.Attempted, res.Failed = m.ops(), m.failed()
	} else {
		// The untraced and the traced halves run the same passes; their
		// wall-time difference is the tracing overhead.
		plain, err := measure(b, seconds/2, 2, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl, err)
		}
		tr := newTracer()
		m, err := measure(b, seconds/2, 2, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: traced: %w", wl, err)
		}
		if err := b.check(tr); err != nil {
			oracleErrs = append(oracleErrs, err)
		}
		vals := make(metricSet)
		b.layers(tr, vals)
		if err := probeBuild(tr, vals); err != nil {
			oracleErrs = append(oracleErrs, err)
		}
		if err := probeEngines(tr, seed, vals); err != nil {
			oracleErrs = append(oracleErrs, err)
		}
		// Layers this workload does not reach are measured on a smoke
		// run of the workload that does (README, "Per-layer metrics").
		for _, other := range workloadNames {
			if other == wl || complete(vals) {
				continue
			}
			if err := smoke(other, seed, tr, vals); err != nil {
				oracleErrs = append(oracleErrs, err)
			}
		}
		vals.set("trace.overhead_s", m.medianWall()-plain.medianWall())
		fmt.Printf("workload %s seed %d (traced): %d untraced + %d traced passes, %d operations (%d failed)\n",
			wl, seed, len(plain.passes), len(m.passes), plain.ops()+m.ops(), plain.failed()+m.failed())
		fmt.Printf("  tracing overhead: %.4f s per pass (traced %.4f s, untraced %.4f s)\n",
			vals["trace.overhead_s"], m.medianWall(), plain.medianWall())
		for _, l := range layerMetrics {
			v, ok := vals[l.Name]
			if !ok {
				return nil, fmt.Errorf("%s: traced run did not measure %s (%v)", wl, l.Name, errors.Join(oracleErrs...))
			}
			res.Metrics[l.Name] = metricValue{v, l.Unit}
			fmt.Printf("  %-34s %14.4f %s\n", l.Name, v, l.Unit)
		}
		tr.printSelfTimes(os.Stderr)
		if spansDir != "" {
			if err := os.MkdirAll(spansDir, 0o755); err != nil {
				return nil, err
			}
			if err := tr.writeFile(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", wl, seed))); err != nil {
				return nil, err
			}
		}
		res.Attempted, res.Failed = plain.ops()+m.ops(), plain.failed()+m.failed()
	}
	b.report()
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			oracleErrs = append(oracleErrs, fmt.Errorf("metric %s is not finite", name))
		}
	}
	for _, err := range oracleErrs {
		fmt.Fprintln(os.Stderr, "perfbench: ORACLE FAILED:", err)
	}
	res.Correct = len(oracleErrs) == 0 && res.Failed == 0
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no operations ran", wl)
	}
	return res, nil
}

// complete reports whether every per-layer metric has a value.
func complete(m metricSet) bool {
	for _, l := range layerMetrics {
		if _, ok := m[l.Name]; !ok {
			return false
		}
	}
	return true
}

// smoke runs one traced smoke-size pass of a workload and its oracle,
// adding the per-layer metrics it measures that m still lacks.
func smoke(name string, seed int64, tr *tracer, m metricSet) error {
	b, err := newBench(name, seed, true)
	if err != nil {
		return err
	}
	if err := b.setup(); err != nil {
		return fmt.Errorf("%s smoke: setup: %w", name, err)
	}
	out, err := b.pass(tr)
	if err != nil {
		return fmt.Errorf("%s smoke: %w", name, err)
	}
	if out.failed > 0 {
		return fmt.Errorf("%s smoke: %d of %d operations failed", name, out.failed, len(out.ops))
	}
	if err := b.check(tr); err != nil {
		return fmt.Errorf("%s smoke: %w", name, err)
	}
	b.layers(tr, m)
	return nil
}
