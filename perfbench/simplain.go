package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"asbr/internal/cpu"
	"asbr/internal/workload"
)

// simPlain runs the four paper benchmarks hookless on the auto engine
// (bimodal, no fold unit, no observer), from programs built and
// predecoded in set-up: bound by the superblock loop.
type simPlain struct {
	n     map[string]int // samples per benchmark
	seed  int64
	suite []built
	first []cpu.Stats // per-benchmark stats of the first pass
	// Instructions in runs that resolved to the superblock engine, and
	// in all runs.
	superInstr, allInstr uint64
}

// simWorkers simulations run at a time, one per core. With a single
// goroutine the run took on the contention of whichever core its
// thread sat on, and pass times spread by 0.15 to 0.25 between runs of
// the same seed; two workers halved that.
const simWorkers = 2

// The sample counts give the four simulations about the same host
// time (ADPCM costs about a fortieth of G.721 per sample), so the
// latency percentiles fall inside one cluster of similar runs rather
// than on the gap between a short and a long benchmark.
func newSimPlain(seed int64, tiny bool) *simPlain {
	scale := 1
	if tiny {
		scale = 8
	}
	return &simPlain{seed: seed, n: map[string]int{
		workload.ADPCMEncode: 9728 / scale, workload.ADPCMDecode: 11264 / scale,
		workload.G721Encode: 224 / scale, workload.G721Decode: 240 / scale,
	}}
}

func (s *simPlain) setup() error {
	s.suite = nil
	for _, name := range workload.Names() {
		b, err := buildBench(name, s.n[name], s.seed)
		if err != nil {
			return err
		}
		s.suite = append(s.suite, b)
	}
	return nil
}

func (s *simPlain) pass(tr *tracer) (passOut, error) {
	ctx := context.Background()
	var out passOut
	results := make([]*workload.Result, len(s.suite))
	errs := make([]error, len(s.suite))
	lat := make([]float64, len(s.suite))
	root := tr.start("sim-plain.pass", nil)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.suite) {
					return
				}
				b := s.suite[i]
				t0 := time.Now()
				results[i], errs[i] = workload.RunContext(ctx, b.prog, machine("bimodal", cpu.EngineAuto, b.pre), b.in, s.n[b.name])
				t1 := time.Now()
				lat[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e6
				if res := results[i]; res != nil {
					// Named after the engine that actually ran.
					tr.add("cpu."+res.CPU.ResolvedEngine().String(), root, "", t0, t1, res.Stats.Instructions)
				}
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)

	stats := make([]cpu.Stats, len(s.suite))
	for i, b := range s.suite {
		out.ops = append(out.ops, op{b.name, lat[i]})
		if errs[i] != nil {
			out.failed++
			continue
		}
		res := results[i]
		out.instrs += res.Stats.Instructions
		s.allInstr += res.Stats.Instructions
		if res.CPU.ResolvedEngine() == cpu.EngineSuperblock {
			s.superInstr += res.Stats.Instructions
		}
		stats[i] = res.Stats
		if !slices.Equal(res.Output, b.want) || (s.first != nil && stats[i] != s.first[i]) {
			out.failed++
		}
	}
	root.end(out.instrs)
	if s.first == nil {
		s.first = stats
	}
	return out, nil
}

// check requires bit-identical Stats and golden outputs across the
// superblock, fast and reference engines on one pass.
func (s *simPlain) check(tr *tracer) error {
	ctx := context.Background()
	root := tr.start("sim-plain.check", nil)
	defer root.end(0)
	for i, b := range s.suite {
		for _, e := range []cpu.Engine{cpu.EngineSuperblock, cpu.EngineFast, cpu.EngineReference} {
			sp := tr.start("cpu."+e.String(), root)
			res, err := workload.RunContext(ctx, b.prog, machine("bimodal", e, b.pre), b.in, s.n[b.name])
			if err != nil {
				return fmt.Errorf("sim-plain check: %s on %s: %w", b.name, e, err)
			}
			sp.end(res.Stats.Instructions)
			if !slices.Equal(res.Output, b.want) {
				return fmt.Errorf("sim-plain check: %s on %s: output differs from the golden model", b.name, e)
			}
			if res.Stats != s.first[i] {
				return fmt.Errorf("sim-plain check: %s: %s stats differ from the timed passes", b.name, e)
			}
		}
	}
	return nil
}

func (s *simPlain) layers(tr *tracer, m metricSet) {
	for _, e := range []string{"superblock", "fast", "reference"} {
		m.set("cpu."+e+".ns_per_instr", tr.nsPerUnit("cpu."+e))
	}
	m.set("cpu.superblock_share", ratio(float64(s.superInstr), float64(s.allInstr)))
	var c simCounts
	for _, st := range s.first {
		c.add(st.Snapshot())
	}
	c.metrics(m)
}

func (s *simPlain) report() {
	fmt.Printf("  sim-plain: samples %v, %d workers, superblock share %.3f of guest instructions\n",
		s.n, simWorkers, ratio(float64(s.superInstr), float64(s.allInstr)))
}
