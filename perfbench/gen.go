package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"math/rand"
	"os"

	"asbr/internal/corpus"
	"asbr/internal/runner"
	"asbr/internal/workload"
)

// replaySeed is the generator seed of the checked-in traffic log
// testdata/replay.jsonl; regenerate with `perfbench --gen-replay`.
const replaySeed = 20260

//go:embed testdata/replay.jsonl
var replayLog []byte

// Traffic shape of the serve-replay log. No measured request mix of
// the daemon exists, so the shares are chosen, not measured:
//
//   - job kinds: the three the benchmark is asked to mix (plain bench,
//     ASBR bench, MiniC source), in equal thirds of the distinct jobs;
//   - predictors: the four families bimodal, gshare, tage and loop, in
//     equal quarters;
//   - bench jobs: the four paper benchmarks uniformly, at 128 samples,
//     the count every bench request in the repository sends (the
//     asbr-serve smoke test and the daemon walkthrough), on input
//     seeds 1 to 4; source jobs are corpus.Generate programs at the
//     default knobs, the kind asbr-sim -remote posts;
//   - repeats: replayRepeats of the replayUnique+replayRepeats
//     requests (25 %) are verbatim copies of distinct jobs, which the
//     daemon's result cache answers.
const (
	replayUnique  = 96
	replayRepeats = 32
	benchSamples  = 128
)

// Job kinds of the replay log.
const (
	kindBench  = "bench"  // plain bench job
	kindASBR   = "asbr"   // bench job with profile, select, fold
	kindSource = "source" // corpus.Gen MiniC source job
)

var replayKinds = []string{kindBench, kindASBR, kindSource}

// replayFamilies are the predictor families jobs are spread across.
var replayFamilies = []string{"bimodal", "gshare", "tage", "loop"}

// genReplay generates the serve-replay traffic from seed. Distinct
// job i has kind i mod 3 and predictor family i mod 4, so every
// kind-family pair occurs equally often; the seed draws the bench,
// input seed and program of each job, drawing again when a job would
// repeat an earlier one. The repeats copy the first replayRepeats
// jobs, and the seed shuffles the whole log. Every record's snapshot is
// computed cold with corpus.Run, so the log is the oracle the daemon's
// responses are compared against.
func genReplay(seed int64) ([]corpus.Record, error) {
	rng := rand.New(rand.NewSource(seed))
	var recs []corpus.Record
	seen := map[string]bool{}
	for i := 0; i < replayUnique; i++ {
		kind := replayKinds[i%len(replayKinds)]
		rec := corpus.Record{Config: corpus.ReplayConfig{Predictor: replayFamilies[i%len(replayFamilies)]}}
		for rec.Key == "" || seen[jobKey(rec)] {
			if kind == kindSource {
				src, err := corpus.Generate(1+rng.Int63n(1<<30), corpus.DefaultKnobs())
				if err != nil {
					return nil, err
				}
				rec.Source, rec.Compile, rec.Key = src, true, corpus.SourceKey(src)
				continue
			}
			bench := workload.Names()[rng.Intn(len(workload.Names()))]
			rec.Bench = bench
			rec.Key = runner.NewProgramKey(bench, workload.BuildOptionsFor(bench, true)).Canonical()
			rec.Config.ASBR = kind == kindASBR
			rec.Config.Samples = benchSamples
			rec.Config.Seed = 1 + rng.Int63n(4)
		}
		seen[jobKey(rec)] = true
		snap, err := corpus.Run(rec)
		if err != nil {
			return nil, fmt.Errorf("replay record %d: %w", i, err)
		}
		rec.Snapshot = snap
		recs = append(recs, rec)
	}
	recs = append(recs, recs[:replayRepeats]...)
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs, nil
}

// encodeReplay generates the log and encodes it as asbr-replay/v1.
func encodeReplay(seed int64) ([]byte, error) {
	recs, err := genReplay(seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := corpus.WriteLog(&buf, recs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeReplay(path string, seed int64) error {
	data, err := encodeReplay(seed)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	recs, err := corpus.ReadLog(bytes.NewReader(data))
	if err != nil {
		return err
	}
	fmt.Println(describeTraffic(recs))
	return nil
}

// kindOf classifies a record as one of the job kinds.
func kindOf(r corpus.Record) string {
	switch {
	case r.Source != "":
		return kindSource
	case r.Config.ASBR:
		return kindASBR
	}
	return kindBench
}

// jobKey identifies a job: two records with one key are the same
// request.
func jobKey(r corpus.Record) string {
	return fmt.Sprintf("%s|%+v", r.Key, r.Config)
}

// describeTraffic counts the job-kind, predictor and repeat shares of
// a log.
func describeTraffic(recs []corpus.Record) string {
	kinds := map[string]int{}
	preds := map[string]int{}
	seen := map[string]bool{}
	repeats := 0
	for _, r := range recs {
		kinds[kindOf(r)]++
		preds[r.Config.Predictor]++
		k := jobKey(r)
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	n := float64(len(recs))
	s := fmt.Sprintf("%d requests: kinds", len(recs))
	for _, k := range replayKinds {
		s += fmt.Sprintf(" %s %.1f%%", k, 100*float64(kinds[k])/n)
	}
	s += "; predictors"
	for _, p := range replayFamilies {
		s += fmt.Sprintf(" %s %.1f%%", p, 100*float64(preds[p])/n)
	}
	return s + fmt.Sprintf("; repeats %.1f%%", 100*float64(repeats)/n)
}
