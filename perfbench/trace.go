package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"` // -1 during set-up
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Extra marks a measurement-only call that is not part of the op's
	// own work.
	Extra bool `json:"extra,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records the spans and counters of one goroutine. Its methods
// are no-ops on a nil tracer, which is how untraced runs call them.
type tracer struct {
	t0     time.Time
	op     int
	spans  []span
	open   []int
	counts map[string]float64
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, op: -1, counts: map[string]float64{}}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int { return t.start(name, false) }

// beginExtra opens a measurement-only span.
func (t *tracer) beginExtra(name string) int { return t.start(name, true) }

func (t *tracer) start(name string, extra bool) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent, Start: int64(time.Since(t.t0)), Extra: extra})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// add accumulates a counter.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

func (t *tracer) setOp(i int) {
	if t != nil {
		t.op = i
	}
}

// merge concatenates the spans and counters of several tracers that
// share one t0, renumbering span ids.
func merge(ts ...*tracer) *tracer {
	out := newTracer(ts[0].t0)
	for _, t := range ts {
		base := len(out.spans)
		for _, s := range t.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			out.spans = append(out.spans, s)
		}
		for k, v := range t.counts {
			out.counts[k] += v
		}
	}
	return out
}

// nameTotals aggregates the spans of one name.
type nameTotals struct {
	calls       int
	total, self time.Duration
}

// totals aggregates the spans that keep reports true by name. A span's
// self time is its duration minus that of its direct children.
func totals(spans []span, keep func(span) bool) map[string]*nameTotals {
	childTime := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.dur()
		}
	}
	out := map[string]*nameTotals{}
	for _, s := range spans {
		if !keep(s) {
			continue
		}
		nt := out[s.Name]
		if nt == nil {
			nt = &nameTotals{}
			out[s.Name] = nt
		}
		nt.calls++
		nt.total += s.dur()
		nt.self += s.dur() - childTime[s.ID]
	}
	return out
}

// perCall is the mean duration of the named spans in milliseconds, or 0
// when there are none.
func perCall(t map[string]*nameTotals, name string) float64 {
	nt := t[name]
	if nt == nil || nt.calls == 0 {
		return 0
	}
	return ms(nt.total) / float64(nt.calls)
}

// writeSpans writes the spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printSelfTimes writes each span name's self time, largest first.
func printSelfTimes(w io.Writer, spans []span) {
	t := totals(spans, func(span) bool { return true })
	names := make([]string, 0, len(t))
	var all time.Duration
	for n, nt := range t {
		names = append(names, n)
		all += nt.self
	}
	sort.Slice(names, func(i, j int) bool { return t[names[i]].self > t[names[j]].self })
	fmt.Fprintf(w, "%-22s %8s %12s %12s %7s\n", "span", "calls", "total_ms", "self_ms", "self%")
	for _, n := range names {
		nt := t[n]
		fmt.Fprintf(w, "%-22s %8d %12.2f %12.2f %6.1f%%\n", n, nt.calls, ms(nt.total), ms(nt.self), 100*float64(nt.self)/float64(max(all, 1)))
	}
}
