package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"asbr/internal/dse"
	"asbr/internal/obs"
)

// dseFleet is a fixed-budget seeded hill-climb evaluated through
// dse.NewRemote against two fresh in-process daemons per pass, with
// search parallelism 2: the fleet dispatch path. Each daemon has two
// workers, so the two concurrent evaluations never queue behind each
// other when the hash ring routes both to one daemon; with one worker
// each, how many rounds ran serially depended on where a seed's
// candidates hashed, and pass time spread by 15% across seeds.
type dseFleet struct {
	opts    dse.Options
	budgets dse.Budgets

	// Made by setup, used and stopped by the next pass.
	daemons []*daemon
	fleet   dse.Evaluator

	front    []byte // encoded front of the first complete pass
	points   []dse.Point
	remoteMS map[string][]float64 // config key -> remote eval ms (traced passes)
	localMS  map[string]float64   // config key -> local eval ms (oracle run)
}

func newDSEFleet(seed int64, tiny bool) *dseFleet {
	f := &dseFleet{
		// A G.721 evaluation runs long enough that the client's 100 ms
		// job-poll tick does not quantise the pass time. The search
		// itself is seeded with a constant, so every workload seed walks
		// the same candidates; the workload seed picks the synthetic
		// input trace they are scored on.
		opts:     dse.Options{Bench: "g721-enc", Budget: 12, Seed: 1, Search: dse.SearchHill, Objective: dse.DefaultObjective(), Parallel: 2},
		budgets:  dse.Budgets{Samples: 1024, Seed: seed},
		remoteMS: make(map[string][]float64),
	}
	if tiny {
		f.opts.Bench, f.opts.Budget, f.budgets.Samples = "adpcm-enc", 4, 64
	}
	return f
}

// setup starts the fleet the next pass searches on: two fresh daemons
// and the remote evaluator over them.
func (f *dseFleet) setup() error {
	f.stopFleet()
	for i := 0; i < 2; i++ {
		d, err := startDaemon(2)
		if err != nil {
			f.stopFleet()
			return err
		}
		f.daemons = append(f.daemons, d)
	}
	var addrs []string
	for _, d := range f.daemons {
		addrs = append(addrs, d.addr)
	}
	remote, err := dse.NewRemote(addrs, f.budgets, nil)
	if err != nil {
		f.stopFleet()
		return err
	}
	f.fleet = remote
	return nil
}

func (f *dseFleet) stopFleet() {
	for _, d := range f.daemons {
		d.stop()
	}
	f.daemons, f.fleet = nil, nil
}

// timedEval decorates an Evaluator with per-evaluation timing.
type timedEval struct {
	inner dse.Evaluator
	tr    *tracer
	span  string

	mu  sync.Mutex
	ops []op
	ms  map[string]float64
}

func (t *timedEval) Evaluate(ctx context.Context, c dse.Config) (obs.Snapshot, error) {
	t0 := time.Now()
	snap, err := t.inner.Evaluate(ctx, c)
	t1 := time.Now()
	t.tr.add(t.span, nil, c.Key(), t0, t1, snap.Instructions)
	ms := float64(t1.Sub(t0).Nanoseconds()) / 1e6
	t.mu.Lock()
	t.ops = append(t.ops, op{"eval", ms})
	if t.ms == nil {
		t.ms = make(map[string]float64)
	}
	t.ms[c.Key()] = ms
	t.mu.Unlock()
	return snap, err
}

// encodeFront is the byte form two fronts are compared in.
func encodeFront(r *dse.Result) ([]byte, error) {
	if r.Partial {
		return nil, fmt.Errorf("dse: partial search: %v", r.Errors)
	}
	return json.Marshal(r.Front)
}

func (f *dseFleet) pass(tr *tracer) (passOut, error) {
	var out passOut
	if f.fleet == nil {
		return out, fmt.Errorf("dse-fleet: pass without setup")
	}
	defer f.stopFleet()
	ev := &timedEval{inner: f.fleet, tr: tr, span: "dse.eval"}
	start := time.Now()
	res, err := dse.Run(context.Background(), ev, f.opts)
	out.wall = time.Since(start)
	if err != nil {
		return out, err
	}
	out.ops = ev.ops
	for _, p := range res.Points {
		out.instrs += p.Snapshot.Instructions
	}
	// A partial search (an evaluation the fleet could not complete)
	// and a front that differs from the first pass's both count as a
	// failed operation.
	front, err := encodeFront(res)
	if err != nil {
		out.failed++
		return out, nil
	}
	if f.front == nil {
		f.front, f.points = front, res.Points
	}
	if !bytes.Equal(front, f.front) {
		out.failed++
	}
	if tr != nil {
		for k, ms := range ev.ms {
			f.remoteMS[k] = append(f.remoteMS[k], ms)
		}
	}
	return out, nil
}

// check requires the fleet's front to be byte-identical to a local
// search with the same seed and budget.
func (f *dseFleet) check(tr *tracer) error {
	ev := &timedEval{inner: dse.NewLocal(f.budgets), tr: tr, span: "corpus.runbench"}
	res, err := dse.Run(context.Background(), ev, f.opts)
	if err != nil {
		return fmt.Errorf("dse-fleet oracle: %w", err)
	}
	front, err := encodeFront(res)
	if err != nil {
		return fmt.Errorf("dse-fleet oracle: %w", err)
	}
	if f.front == nil {
		return fmt.Errorf("dse-fleet: no pass produced a complete front")
	}
	if !bytes.Equal(front, f.front) {
		return fmt.Errorf("dse-fleet: remote front differs from the local front")
	}
	f.localMS = ev.ms
	return nil
}

func (f *dseFleet) layers(tr *tracer, m metricSet) {
	m.set("dse.eval_ms", median(tr.durations("dse.eval")))
	m.set("corpus.runbench_ms", median(tr.durations("corpus.runbench")))
	var over []float64
	for k, ms := range f.remoteMS {
		if l, ok := f.localMS[k]; ok {
			over = append(over, median(ms)-l)
		}
	}
	m.set("dse.dispatch_overhead_ms", median(over))
	var c simCounts
	for _, p := range f.points {
		c.add(p.Snapshot)
	}
	c.metrics(m)
}

func (f *dseFleet) report() {
	fmt.Printf("  dse-fleet: %s hill-climb, budget %d, %d samples, 2 daemons x 2 workers, parallel 2; %d evaluated points\n",
		f.opts.Bench, f.opts.Budget, f.budgets.Samples, len(f.points))
}
