package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// traceSpan is one timed call into a layer, recorded from the benchmark's
// own files: the program under test carries no spans of its own yet.
type traceSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: none
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
	// SelfNs is the duration minus the part of it child spans cover.
	SelfNs int64 `json:"selfNs"`
	// Ops is how many calls the span holds when one call is too short to
	// time alone; durations are then reported per call.
	Ops int `json:"ops"`
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	t0    time.Time
	spans []*traceSpan
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent *traceSpan, req int) *traceSpan {
	s := &traceSpan{ID: len(t.spans) + 1, Request: req, Name: name, Ops: 1}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	s.StartNs = int64(time.Since(t.t0))
	return s
}

func (t *tracer) end(s *traceSpan) { s.EndNs = int64(time.Since(t.t0)) }

// do times fn as a span holding ops calls.
func (t *tracer) do(name string, parent *traceSpan, req, ops int, fn func() error) error {
	s := t.begin(name, parent, req)
	s.Ops = ops
	err := fn()
	t.end(s)
	return err
}

// perOpMs lists the per-call duration of every span of that name, ascending.
func (t *tracer) perOpMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6/float64(s.Ops))
		}
	}
	sort.Float64s(out)
	return out
}

// ms is the median per-call duration of the spans of that name.
func (t *tracer) ms(name string) float64 { return percentile(t.perOpMs(name), 50) }

// selfTimes fills SelfNs: a span's duration minus the union of its
// children's intervals, clipped to its own.
func (t *tracer) selfTimes() {
	children := map[int][]*traceSpan{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, upTo := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, upTo), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		s.SelfNs = s.EndNs - s.StartNs - covered
	}
}

// selfMs is the median self time of the spans of that name.
func (t *tracer) selfMs(name string) float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.SelfNs)/1e6)
		}
	}
	sort.Float64s(out)
	return percentile(out, 50)
}

func (t *tracer) write(path string) error {
	t.selfTimes()
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
