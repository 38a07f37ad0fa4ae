package main

import (
	"context"
	"fmt"
	"slices"

	"asbr/internal/asm"
	"asbr/internal/cc"
	"asbr/internal/core"
	"asbr/internal/corpus"
	"asbr/internal/cpu"
	"asbr/internal/experiment"
	"asbr/internal/isa"
	"asbr/internal/obs"
	"asbr/internal/predict"
	"asbr/internal/profile"
	"asbr/internal/sched"
	"asbr/internal/workload"
)

// built is one paper benchmark compiled, predecoded and paired with
// its input trace and golden output.
type built struct {
	name string
	prog *isa.Program
	pre  *cpu.Predecoded
	in   []int32
	want []int32
}

// buildBench compiles a paper benchmark with the paper's scheduling
// methodology and prepares its n-sample input and golden output.
func buildBench(name string, n int, seed int64) (built, error) {
	prog, err := workload.Build(name, true)
	if err != nil {
		return built{}, err
	}
	in, err := workload.Input(name, n, seed)
	if err != nil {
		return built{}, err
	}
	want, err := workload.Expected(name, n, seed)
	if err != nil {
		return built{}, err
	}
	return built{name, prog, cpu.Predecode(prog), in, want}, nil
}

// machine is the paper's platform with the given predictor spec.
func machine(predictor string, eng cpu.Engine, pre *cpu.Predecoded) cpu.Config {
	cfg := corpus.Machine(predictor, eng, 0)
	cfg.Predecoded = pre
	return cfg
}

// Engine-probe sizing: G.721 encode is the longest paper benchmark.
const (
	probeBench   = workload.G721Encode
	probeSamples = 512
	buildReps    = 3
)

// probeBuild times the compile chain of the four paper benchmarks,
// step by step and as one workload.BuildOpt call. Each metric is the
// median over buildReps of the four benchmarks' summed time; like
// every source of per-layer metrics, it fills only those m lacks.
func probeBuild(tr *tracer, m metricSet) error {
	steps := []string{"workload.build", "cc.compile", "asm.assemble", "sched.schedule", "cpu.predecode"}
	sums := make(map[string][]float64)
	for rep := 0; rep < buildReps; rep++ {
		root := tr.start("probe.build", nil)
		before := make(map[string]int)
		for _, s := range steps {
			before[s] = len(tr.durations(s))
		}
		for _, name := range workload.Names() {
			opt := workload.BuildOptionsFor(name, true)
			sp := tr.start("workload.build", root)
			want, err := workload.BuildOpt(name, opt)
			sp.end(0)
			if err != nil {
				return err
			}
			src, err := workload.Source(name)
			if opt.ManualSchedule {
				src, err = workload.ScheduledSource(name)
			}
			if err != nil {
				return err
			}
			sp = tr.start("cc.compile", root)
			text, err := cc.Compile(src)
			sp.end(0)
			if err != nil {
				return err
			}
			sp = tr.start("asm.assemble", root)
			prog, err := asm.Assemble(text)
			sp.end(uint64(len(prog.Text)))
			if err != nil {
				return err
			}
			if opt.CompilerSchedule {
				sp = tr.start("sched.schedule", root)
				prog, _, err = sched.Schedule(prog)
				sp.end(uint64(len(prog.Text)))
				if err != nil {
					return err
				}
			}
			if !slices.Equal(prog.Text, want.Text) {
				return fmt.Errorf("build probe: %s: step-by-step build differs from workload.BuildOpt", name)
			}
			sp = tr.start("cpu.predecode", root)
			cpu.Predecode(prog)
			sp.end(uint64(len(prog.Text)))
		}
		root.end(0)
		for _, s := range steps {
			d := tr.durations(s)
			var sum float64
			for _, x := range d[before[s]:] {
				sum += x
			}
			sums[s] = append(sums[s], sum)
		}
	}
	for _, s := range steps {
		m.set(s+"_ms", median(sums[s]))
	}
	return nil
}

// probeEngines runs G.721 encode once per engine configuration, each
// in its own span counting committed instructions, and replays its
// conditional-branch outcome stream through each zoo predictor.
func probeEngines(tr *tracer, seed int64, m metricSet) error {
	ctx := context.Background()
	prog, err := workload.Build(probeBench, true)
	if err != nil {
		return err
	}
	in, err := workload.Input(probeBench, probeSamples, seed)
	if err != nil {
		return err
	}
	want, err := workload.Expected(probeBench, probeSamples, seed)
	if err != nil {
		return err
	}
	pre := cpu.Predecode(prog)
	root := tr.start("probe.engines", nil)
	defer root.end(0)

	var autoInstr, superInstr uint64
	run := func(span string, cfg cpu.Config) (*workload.Result, error) {
		sp := tr.start(span, root)
		res, err := workload.RunContext(ctx, prog, cfg, in, probeSamples)
		if err != nil {
			return nil, fmt.Errorf("engine probe %s: %w", span, err)
		}
		sp.end(res.Stats.Instructions)
		if !slices.Equal(res.Output, want) {
			return nil, fmt.Errorf("engine probe %s: output differs from the golden model", span)
		}
		if cfg.Engine == cpu.EngineAuto {
			autoInstr += res.Stats.Instructions
			if res.CPU.ResolvedEngine() == cpu.EngineSuperblock {
				superInstr += res.Stats.Instructions
			}
		}
		return res, nil
	}

	// Warm-up, untimed: first-touch page faults and the icache of the host.
	if _, err := workload.RunContext(ctx, prog, machine("bimodal", cpu.EngineAuto, pre), in, probeSamples); err != nil {
		return err
	}
	plain, err := run("cpu.superblock", machine("bimodal", cpu.EngineAuto, pre))
	if err != nil {
		return err
	}
	for _, e := range []cpu.Engine{cpu.EngineFast, cpu.EngineReference} {
		res, err := run("cpu."+e.String(), machine("bimodal", e, pre))
		if err != nil {
			return err
		}
		if res.Stats != plain.Stats {
			return fmt.Errorf("engine probe: %s stats differ from the auto engine", e)
		}
	}

	// The profiled run: the sweep's five-shadow profiler as observer.
	prof := profile.New(
		predict.NotTaken{},
		predict.Must(predict.NewBimodal(2048)),
		predict.Must(predict.NewGShare(11, 2048)),
		predict.Must(predict.NewBimodal(512)),
		predict.Must(predict.NewBimodal(256)),
	)
	cfg := machine("bimodal", cpu.EngineAuto, pre)
	cfg.Observer = prof
	if _, err := run("cpu.profiled", cfg); err != nil {
		return err
	}
	k := corpus.ResolveBITEntries(probeBench, 0)
	sp := tr.start("profile.select", root)
	cands, err := profile.Select(prog, prof, experiment.SelectOptionsFor(k, probeSamples))
	sp.end(uint64(len(cands)))
	if err != nil {
		return err
	}
	entries, err := profile.BuildBITFromCandidates(prog, cands)
	if err != nil {
		return err
	}
	loaded := func() (*core.Engine, error) {
		eng := core.NewEngine(core.Config{BITEntries: k, TrackValidity: true})
		return eng, eng.Load(entries)
	}

	// The paper's machine: a loaded fold unit with the bi-512 auxiliary.
	eng, err := loaded()
	if err != nil {
		return err
	}
	cfg = machine("bi512", cpu.EngineAuto, pre)
	cfg.Fold = eng
	asbr, err := run("cpu.asbr", cfg)
	if err != nil {
		return err
	}
	if asbr.Stats.Folded == 0 {
		return fmt.Errorf("engine probe: the ASBR run folded no branch")
	}

	// Branch accounting with the predictability table's shadow zoo.
	var shadows []obs.ShadowPredictor
	for _, fam := range predictFamilies {
		u, err := buildPredictor(fam)
		if err != nil {
			return err
		}
		shadows = append(shadows, u.Dir)
	}
	acct := obs.NewBranchAccounting(uint64(2+experiment.ExtraMispredictCycles), shadows...)
	pcs := make([]uint32, len(entries))
	for i, e := range entries {
		pcs[i] = e.PC
	}
	acct.MarkFoldEligible(pcs)
	if eng, err = loaded(); err != nil {
		return err
	}
	cfg = machine("bi512", cpu.EngineAuto, pre)
	cfg.Fold = eng
	cfg.Observer = acct
	if _, err := run("obs.branchacct", cfg); err != nil {
		return err
	}

	// Record the outcome stream once, then time Predict+Update pairs.
	rec := &outcomeRecorder{}
	cfg = machine("bimodal", cpu.EngineFast, pre)
	cfg.Observer = rec
	if _, err := workload.RunContext(ctx, prog, cfg, in, probeSamples); err != nil {
		return err
	}
	for _, fam := range predictFamilies {
		u, err := buildPredictor(fam)
		if err != nil {
			return err
		}
		d := u.Dir
		var hits uint64
		sp := tr.start("predict."+fam, root)
		for _, o := range rec.outcomes {
			if d.Predict(o.pc) == o.taken {
				hits++
			}
			d.Update(o.pc, o.taken)
		}
		sp.end(uint64(len(rec.outcomes)))
		if hits == 0 {
			return fmt.Errorf("predictor probe: %s predicted no branch correctly", fam)
		}
	}

	for _, name := range []string{"cpu.superblock", "cpu.fast", "cpu.reference", "cpu.profiled", "cpu.asbr", "obs.branchacct"} {
		m.set(name+".ns_per_instr", tr.nsPerUnit(name))
	}
	for _, fam := range predictFamilies {
		m.set("predict."+fam+".ns_per_branch", tr.nsPerUnit("predict."+fam))
	}
	m.set("profile.select_ms", median(tr.durations("profile.select")))
	m.set("cpu.superblock_share", ratio(float64(superInstr), float64(autoInstr)))
	return nil
}

func buildPredictor(family string) (*predict.Unit, error) {
	spec, err := predict.ParseSpec(family)
	if err != nil {
		return nil, err
	}
	return spec.Build()
}

type outcome struct {
	pc    uint32
	taken bool
}

// outcomeRecorder is a cpu.BranchObserver that keeps the dynamic
// conditional-branch outcome stream.
type outcomeRecorder struct{ outcomes []outcome }

func (r *outcomeRecorder) OnBranch(pc uint32, taken, _ bool) {
	r.outcomes = append(r.outcomes, outcome{pc, taken})
}

// simCounts accumulates simulated counters across snapshots for the
// exact per-layer metrics. Summation order is fixed by the caller, so
// the float results repeat bit for bit.
type simCounts struct {
	instrs, folded, cond, mispredicts uint64
	iAcc, dAcc, iMiss, dMiss          float64
}

func (c *simCounts) add(s obs.Snapshot) {
	c.instrs += s.Instructions
	c.folded += s.Folded
	c.cond += s.CondBranches
	c.mispredicts += s.Mispredicts
	c.iAcc += float64(s.ICacheAccesses)
	c.dAcc += float64(s.DCacheAccesses)
	c.iMiss += s.ICacheMissRate * float64(s.ICacheAccesses)
	c.dMiss += s.DCacheMissRate * float64(s.DCacheAccesses)
}

func (c *simCounts) metrics(m metricSet) {
	// Fold coverage, the paper's §4 measure: the share of dynamic
	// conditional branches the fold unit removed from the pipeline.
	m.set("core.fold_rate", ratio(float64(c.folded), float64(c.cond+c.folded)))
	m.set("core.folded_per_kinstr", ratio(1000*float64(c.folded), float64(c.instrs)))
	m.set("predict.mispredict_rate", ratio(float64(c.mispredicts), float64(c.cond)))
	m.set("mem.icache_miss_rate", ratio(c.iMiss, c.iAcc))
	m.set("mem.dcache_miss_rate", ratio(c.dMiss, c.dAcc))
}
