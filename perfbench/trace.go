package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer is an in-memory span recorder. Spans are recorded around the
// benchmark's own calls into the program's packages, never inside
// them. A nil *tracer is valid and records nothing, so untraced passes
// pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

// spanRec is one span. Parent is the index of the enclosing span (-1
// for a root); spans of one request share Req. End is -1 while open.
type spanRec struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    string `json:"req,omitempty"`
	// Count is the work the span did in the layer's own unit
	// (instructions, branches, requests); 0 when not meaningful.
	Count uint64 `json:"count,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span; end closes it.
type span struct {
	tr *tracer
	id int
}

// start opens a span under parent (nil for a root).
func (t *tracer) start(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{ID: id, Name: name, Start: now, End: -1, Parent: parentID(parent)})
	return &span{tr: t, id: id}
}

func parentID(parent *span) int {
	if parent == nil {
		return -1
	}
	return parent.id
}

// add records a finished span of request req ("" for none): one timed
// by its caller, or one whose name is only known once the work is done
// (such as the engine a run resolved to).
func (t *tracer) add(name string, parent *span, req string, start, end time.Time, count uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{ID: len(t.spans), Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Parent: parentID(parent), Req: req, Count: count})
}

// end closes the span, recording count units of work.
func (s *span) end(count uint64) {
	if s == nil {
		return
	}
	now := time.Since(s.tr.t0).Nanoseconds()
	s.tr.mu.Lock()
	s.tr.spans[s.id].End = now
	s.tr.spans[s.id].Count = count
	s.tr.mu.Unlock()
}

// finished returns the closed spans with the given name.
func (t *tracer) finished(name string) []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []spanRec
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations, in milliseconds, of the closed
// spans with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.finished(name) {
		out = append(out, float64(s.End-s.Start)/1e6)
	}
	return out
}

// nsPerUnit is total duration over total counted work of the named
// spans (0 when they did no counted work).
func (t *tracer) nsPerUnit(name string) float64 {
	var ns, n uint64
	for _, s := range t.finished(name) {
		ns += uint64(s.End - s.Start)
		n += s.Count
	}
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// layerTime is one span name's aggregate: total and self time.
type layerTime struct {
	Name    string
	Spans   int
	TotalMs float64
	SelfMs  float64
}

// selfTimes aggregates every span name. A span's self time is its
// duration minus the part of its interval covered by its children
// (children of concurrent requests may overlap, so their union is
// subtracted, not their sum).
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		self := d - covered(children[s.ID], s.Start, s.End)
		a := agg[s.Name]
		if a == nil {
			a = &layerTime{Name: s.Name}
			agg[s.Name] = a
		}
		a.Spans++
		a.TotalMs += float64(d) / 1e6
		a.SelfMs += float64(self) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// writeFile writes every span as JSON lines, once, at the end of a run.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes renders the per-span-name self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "%-34s %7s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, l := range t.selfTimes() {
		fmt.Fprintf(w, "%-34s %7d %12.2f %12.2f\n", l.Name, l.Spans, l.TotalMs, l.SelfMs)
	}
}
