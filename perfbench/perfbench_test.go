package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, nameRE)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("metric %s: unit %q does not match %s", name, unit, unitRE)
		}
		if seen[name] {
			t.Errorf("metric %s listed twice", name)
		}
		seen[name] = true
	}
	for _, e := range e2eMetrics {
		check(e.Name, e.Unit)
	}
	for _, l := range layerMetrics {
		check(l.Name, l.Unit)
	}
}

// manifest is BENCHMARK.json; decoding rejects any key it does not name.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesCatalog keeps BENCHMARK.json and the metrics the
// program prints in step, and requires every per-layer metric to name
// an end-to-end metric and a workload that exist.
func TestManifestMatchesCatalog(t *testing.T) {
	m := readManifest(t)
	var wls, e2e []string
	for _, w := range m.Workloads {
		wls = append(wls, w.Name)
	}
	if !slices.Equal(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", wls, workloadNames)
	}
	if len(m.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(m.EndToEnd), len(e2eMetrics))
	}
	for i, e := range m.EndToEnd {
		c := e2eMetrics[i]
		if e.Name != c.Name || e.Unit != c.Unit || e.Better != c.Better || e.Bound != c.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, e, c)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		e2e = append(e2e, e.Name)
	}
	if !slices.Contains(e2e, "setup_s") {
		t.Error("no setup_s end-to-end metric")
	}
	if len(m.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(m.PerLayer), len(layerMetrics))
	}
	for i, l := range m.PerLayer {
		c := layerMetrics[i]
		if l.Name != c.Name || l.Unit != c.Unit || l.Better != c.Better {
			t.Errorf("per_layer[%d] = %+v, program has %s %s %s", i, l, c.Name, c.Unit, c.Better)
		}
		if (len(c.Moves) == 0) != (len(c.On) == 0) {
			t.Errorf("%s: names end-to-end metrics %v on workloads %v", c.Name, c.Moves, c.On)
		}
		for _, mv := range c.Moves {
			if !slices.Contains(e2e, mv) {
				t.Errorf("%s moves %q, which is no end-to-end metric", c.Name, mv)
			}
		}
		for _, w := range c.On {
			if !slices.Contains(wls, w) {
				t.Errorf("%s moves on %q, which is no workload", c.Name, w)
			}
		}
	}
	for _, p := range m.Paths {
		if p != "perfbench" {
			t.Errorf("unexpected path %q", p)
		}
	}
}

// TestReplayDeterministic regenerates the traffic log from its seed:
// twice byte-identical, and identical to the checked-in log.
func TestReplayDeterministic(t *testing.T) {
	a, err := encodeReplay(replaySeed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeReplay(replaySeed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two generations from one seed differ")
	}
	if !bytes.Equal(a, replayLog) {
		t.Fatal("testdata/replay.jsonl is not the generator's output for replaySeed; regenerate it")
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 20}, {30, 40}, {35, 38}}
	if got := covered(iv, 0, 100); got != 30 {
		t.Errorf("covered = %d, want 30", got)
	}
	if got := covered(iv, 8, 32); got != 14 {
		t.Errorf("clipped covered = %d, want 14", got)
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced,
// through its correctness oracle.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			b, err := newBench(name, 3, true)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			for _, trc := range []*tracer{nil, tr} {
				if err := b.setup(); err != nil {
					t.Fatal(err)
				}
				out, err := b.pass(trc)
				if err != nil {
					t.Fatal(err)
				}
				if out.failed > 0 || len(out.ops) == 0 || out.instrs == 0 {
					t.Fatalf("pass: %d of %d operations failed, %d instructions", out.failed, len(out.ops), out.instrs)
				}
			}
			if err := b.check(tr); err != nil {
				t.Fatal(err)
			}
			m := metricSet{}
			b.layers(tr, m)
			for _, exact := range []string{"predict.mispredict_rate", "mem.icache_miss_rate"} {
				if m[exact] <= 0 {
					t.Errorf("%s = %v, want > 0", exact, m[exact])
				}
			}
		})
	}
}
