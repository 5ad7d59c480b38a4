package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share Op; Parent is the enclosing span's ID (0 at the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer times the calls the benchmark makes into each layer. When on,
// it also keeps a span per call in memory; they are written out only
// when the run ends, so tracing adds no I/O to the measured path.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	stack []int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// time runs f and returns its wall time, keeping a span named name
// nested under the innermost open span when tracing is on.
func (tr *tracer) time(name string, f func()) time.Duration {
	if !tr.on {
		start := time.Now()
		f()
		return time.Since(start)
	}
	id := len(tr.spans) + 1
	parent := 0
	if n := len(tr.stack); n > 0 {
		parent = tr.stack[n-1]
	}
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Op: tr.op, Name: name})
	tr.stack = append(tr.stack, id)
	start := time.Now()
	f()
	end := time.Now()
	tr.stack = tr.stack[:len(tr.stack)-1]
	sp := &tr.spans[id-1]
	sp.Start = start.Sub(tr.t0).Nanoseconds()
	sp.End = end.Sub(tr.t0).Nanoseconds()
	return end.Sub(start)
}

// selfTime totals, per span name over the spans from index from on, the spans' count, wall time and self
// time: a span's duration minus the part its direct children cover.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (tr *tracer) selfTimes(from int) []selfTime {
	child := make([]int64, len(tr.spans)+1)
	for _, s := range tr.spans[from:] {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*selfTime{}
	for _, s := range tr.spans[from:] {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.TotalMS += float64(s.End-s.Start) / 1e6
		st.SelfMS += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tr.spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
