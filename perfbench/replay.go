package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asbr/internal/corpus"
	"asbr/internal/cpu"
	"asbr/internal/isa"
	"asbr/internal/serve"
	"asbr/internal/serve/client"
	"asbr/internal/workload"
)

// Closed-loop load: replayClients callers each send their next request
// only after the previous one returns, against a daemon with
// replayWorkers workers (the host has two cores).
const (
	replayClients = 2
	replayWorkers = 2
)

// serveReplay drives a fresh in-process daemon per pass with the
// checked-in traffic log, in a seeded order.
type serveReplay struct {
	seed   int64
	limit  int // smoke size: replay only this prefix of the log
	recs   []corpus.Record
	d      *daemon // made by setup, used and stopped by the next pass
	passes int

	first []*serve.SimResponse // responses of the first pass, for the exact counts
	// From traced passes: queue-depth maximum, 429s, and the daemon's
	// cache counters at the end of the last traced pass.
	queueMax  int
	rejected  int
	simGets   float64
	simBuilds float64
	artGets   float64
	artBuilds float64
	traced    int        // traced passes
	split     *costSplit // from the traced oracle
}

func newServeReplay(seed int64, tiny bool) *serveReplay {
	s := &serveReplay{seed: seed}
	if tiny {
		s.limit = 24
	}
	return s
}

// setup decodes the traffic log and starts the fresh daemon the next
// pass replays it against.
func (s *serveReplay) setup() error {
	recs, err := corpus.ReadLog(bytes.NewReader(replayLog))
	if err != nil {
		return fmt.Errorf("replay log: %w", err)
	}
	if s.limit > 0 {
		recs = recs[:s.limit]
	}
	s.recs = recs
	if s.d != nil {
		s.d.stop()
	}
	s.d, err = startDaemon(replayWorkers)
	return err
}

// request turns a replay record into the /v1/sim request that the
// daemon recorded it from.
func request(r corpus.Record) serve.SimRequest {
	return serve.SimRequest{
		Bench: r.Bench, Source: r.Source, Compile: r.Compile, Schedule: r.Schedule,
		Predictor: r.Config.Predictor, ASBR: r.Config.ASBR, BITEntries: r.Config.BITEntries,
		BITBanks: r.Config.BITBanks, Update: r.Config.Update,
		ICacheKB: r.Config.ICacheKB, DCacheKB: r.Config.DCacheKB,
		Samples: r.Config.Samples, Seed: r.Config.Seed, MaxCycles: r.Config.MaxCycles,
	}
}

// daemon is an in-process serve.Server on a loopback port.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	addr string
	done chan struct{}
}

func startDaemon(workers int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  serve.New(serve.Config{Workers: workers, QueueDepth: 64}),
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop shuts the HTTP layer down, drains the worker pool and waits
// for the serving goroutine to exit.
func (d *daemon) stop() {
	d.hs.Shutdown(context.Background())
	d.srv.Drain()
	<-d.done
}

type reply struct {
	resp *serve.SimResponse
	err  error
	ms   float64
}

func (s *serveReplay) pass(tr *tracer) (passOut, error) {
	var out passOut
	d := s.d
	if d == nil {
		return out, fmt.Errorf("serve-replay: pass without setup")
	}
	s.d = nil
	defer d.stop()
	ctx := context.Background()
	pass := s.passes
	order := rand.New(rand.NewSource(s.seed*1000 + int64(pass))).Perm(len(s.recs))
	s.passes++
	replies := make([]reply, len(s.recs))
	root := tr.start("serve-replay.pass", nil)

	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	if tr != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			t := time.NewTicker(time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-t.C:
					s.queueMax = max(s.queueMax, d.srv.QueueLen())
				}
			}
		}()
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < replayClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(d.addr)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				rec := s.recs[order[i]]
				t0 := time.Now()
				resp, err := cl.Sim(ctx, request(rec))
				t1 := time.Now()
				tr.add("serve.sim."+kindOf(rec), root, fmt.Sprintf("pass%d/req%d", pass, i), t0, t1, 1)
				replies[i] = reply{resp, err, float64(t1.Sub(t0).Nanoseconds()) / 1e6}
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	root.end(uint64(len(order)))
	if tr != nil {
		s.traced++
		close(stopSampler)
		sampler.Wait()
		text, err := client.New(d.addr).Metrics(ctx)
		if err != nil {
			return out, err
		}
		s.simGets = promSum(text, "asbr_serve_sim_cache_gets_total")
		s.simBuilds = promSum(text, "asbr_serve_sim_cache_builds_total")
		s.artGets = promSum(text, "asbr_serve_artifact_gets_total")
		s.artBuilds = promSum(text, "asbr_serve_artifact_builds_total")
	}

	// Oracle, outside the timed region: every response equals the
	// snapshot corpus.Run computed cold for its record.
	first := s.first == nil
	if first {
		s.first = make([]*serve.SimResponse, len(s.recs))
	}
	for i, r := range replies {
		rec := s.recs[order[i]]
		out.ops = append(out.ops, op{kindOf(rec), r.ms})
		var api *client.APIError
		if errors.As(r.err, &api) && api.Status == http.StatusTooManyRequests && tr != nil {
			s.rejected++
		}
		if r.err != nil || r.resp.Stats != rec.Snapshot || (rec.Bench != "" && (r.resp.OutputOK == nil || !*r.resp.OutputOK)) {
			out.failed++
			continue
		}
		out.instrs += r.resp.Stats.Instructions
		if first {
			s.first[order[i]] = r.resp
		}
	}
	return out, nil
}

// promSum adds up every series of a Prometheus text-format metric.
func promSum(text, name string) float64 {
	var sum float64
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := strings.Fields(rest[strings.LastIndexByte(rest, '}')+1:])
		if len(f) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(f[0], 64); err == nil {
			sum += v
		}
	}
	return sum
}

func (s *serveReplay) check(tr *tracer) error {
	for i, r := range s.first {
		if r == nil {
			return fmt.Errorf("serve-replay: record %d never answered correctly", i)
		}
	}
	if tr != nil && s.traced > 0 {
		split, err := splitCost(tr, s.recs, s.traced)
		if err != nil {
			return err
		}
		s.split = split
	}
	return nil
}

// costSplit divides one replay of the log, per job kind, into what
// the daemon's own work costs in-process and what serving adds. All
// values are milliseconds per replay of the log.
type costSplit struct {
	requests map[string]int
	rtt      map[string]float64 // client round trips (traced passes)
	prepare  map[string]float64 // program build and predecode; bench input and golden output
	sim      map[string]float64 // simulation, with profile and select for ASBR
}

// splitCost times, in-process and cold, the work the daemon does once
// per distinct job of the log: preparing it (building and predecoding
// its program, and for bench jobs the input trace and golden output,
// each once, as the daemon's artifact store keeps them) and the whole
// corpus.Run, whose remainder after the build is the simulation.
// Repeated jobs come from the result cache and cost neither. What the
// client round trips of the traced passes take beyond that is serving:
// HTTP, JSON, queueing and the cache lookups.
func splitCost(tr *tracer, recs []corpus.Record, passes int) (*costSplit, error) {
	c := &costSplit{requests: map[string]int{}, rtt: map[string]float64{}, prepare: map[string]float64{}, sim: map[string]float64{}}
	root := tr.start("serve.split", nil)
	defer root.end(0)
	jobs := map[string]bool{}
	progs := map[string]float64{}  // program key -> build ms
	inputs := map[string]float64{} // bench|samples|seed -> input ms
	for _, rec := range recs {
		k := kindOf(rec)
		c.requests[k]++
		if jobs[jobKey(rec)] {
			continue
		}
		jobs[jobKey(rec)] = true
		buildMS, seen := progs[rec.Key]
		if !seen {
			t0 := time.Now()
			if err := buildProgram(rec); err != nil {
				return nil, fmt.Errorf("serve-replay split: %w", err)
			}
			t1 := time.Now()
			tr.add("serve.split.build", root, rec.Key, t0, t1, 0)
			buildMS = float64(t1.Sub(t0).Nanoseconds()) / 1e6
			progs[rec.Key] = buildMS
			c.prepare[k] += buildMS
		}
		// corpus.Run makes a bench job's input trace, as the daemon
		// does, but not its golden output.
		in := fmt.Sprintf("%s|%d|%d", rec.Bench, rec.Config.Samples, rec.Config.Seed)
		inMS, seen := inputs[in]
		if rec.Bench != "" && !seen {
			t0 := time.Now()
			_, err := workload.Input(rec.Bench, rec.Config.Samples, rec.Config.Seed)
			t1 := time.Now()
			if err == nil {
				_, err = workload.Expected(rec.Bench, rec.Config.Samples, rec.Config.Seed)
			}
			t2 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("serve-replay split: %w", err)
			}
			tr.add("serve.split.input", root, in, t0, t2, 0)
			inMS = float64(t1.Sub(t0).Nanoseconds()) / 1e6
			inputs[in] = inMS
			c.prepare[k] += float64(t2.Sub(t0).Nanoseconds()) / 1e6
		}
		t0 := time.Now()
		snap, err := corpus.Run(rec)
		t1 := time.Now()
		tr.add("serve.split.run", root, rec.Key, t0, t1, snap.Instructions)
		if err != nil || snap != rec.Snapshot {
			return nil, fmt.Errorf("serve-replay split: a cold run of %s differs from its logged snapshot (%v)", rec.Key, err)
		}
		c.sim[k] += max(0, float64(t1.Sub(t0).Nanoseconds())/1e6-buildMS-inMS)
	}
	for _, k := range replayKinds {
		var sum float64
		for _, ms := range tr.durations("serve.sim." + k) {
			sum += ms
		}
		c.rtt[k] = sum / float64(passes)
	}
	return c, nil
}

// buildProgram builds a record's program as the daemon does before it
// simulates: compile or assemble (bench: the benchmark build),
// schedule, predecode.
func buildProgram(rec corpus.Record) error {
	var prog *isa.Program
	var err error
	if rec.Bench != "" {
		prog, err = workload.Build(rec.Bench, true)
	} else {
		prog, err = corpus.BuildSource(rec.Source, rec.Compile, rec.Schedule)
	}
	if err != nil {
		return err
	}
	cpu.Predecode(prog)
	return nil
}

func (c *costSplit) print() {
	fmt.Printf("  serve-replay cost split, ms per replay of the log (prepare and simulate timed in-process, cold, once per distinct job):\n")
	fmt.Printf("    %-7s %8s %12s %10s %10s %10s %8s\n", "kind", "requests", "round trip", "prepare", "simulate", "serving", "serving")
	var n int
	var rtt, prep, sim float64
	row := func(k string, n int, rtt, prep, sim float64) {
		serving := rtt - prep - sim
		fmt.Printf("    %-7s %8d %12.1f %10.1f %10.1f %10.1f %7.1f%%\n", k, n, rtt, prep, sim, serving, 100*ratio(serving, rtt))
	}
	for _, k := range replayKinds {
		row(k, c.requests[k], c.rtt[k], c.prepare[k], c.sim[k])
		n, rtt, prep, sim = n+c.requests[k], rtt+c.rtt[k], prep+c.prepare[k], sim+c.sim[k]
	}
	row("all", n, rtt, prep, sim)
}

func (s *serveReplay) layers(tr *tracer, m metricSet) {
	for _, k := range []string{kindBench, kindASBR, kindSource} {
		m.set("serve.sim_ms."+k, median(tr.durations("serve.sim."+k)))
	}
	m.set("serve.queue_depth_max", float64(s.queueMax))
	m.set("serve.cache_hit_ratio", ratio(s.simGets-s.simBuilds, s.simGets))
	m.set("serve.rejected", float64(s.rejected))
	m.set("runner.artifact_hit_ratio", ratio(s.artGets-s.artBuilds, s.artGets))
	var c simCounts
	for _, r := range s.first {
		if r != nil {
			c.add(r.Stats)
		}
	}
	c.metrics(m)
}

func (s *serveReplay) report() {
	fmt.Printf("  serve-replay: %d closed-loop clients, %d daemon workers; traffic %s\n",
		replayClients, replayWorkers, describeTraffic(s.recs))
	if s.split != nil {
		s.split.print()
	}
}
