package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the index of the enclosing span (-1 for a
// root).
type span struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, detail string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Detail: detail, Parent: parent, Req: req, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose start and end were observed elsewhere (the
// engine's start/done events).
func (t *tracer) record(name string, parent int, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover. Overlapping children count once,
// and a child reaching outside its parent counts only inside it.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered int64
		cur := s.Start // everything before cur is already counted
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// spanMS collects, per span name, the durations (self time when self is
// set) in milliseconds, optionally keyed further by Detail.
func spanMS(spans []span, self bool, byDetail bool) map[string][]float64 {
	var st []time.Duration
	if self {
		st = selfTimes(spans)
	}
	out := make(map[string][]float64)
	for i, s := range spans {
		d := s.dur()
		if self {
			d = st[i]
		}
		k := s.Name
		if byDetail {
			k += "/" + s.Detail
		}
		out[k] = append(out[k], ms(d))
	}
	return out
}

// pairedOverhead measures tracing overhead as the median over pairs of
// the traced operation's time divided by the untraced one's, minus 1. Pair
// i runs operations k = 2i and 2i+1, one untraced and one traced,
// alternating which goes first, so drift in host speed between pairs
// cancels and drift within a pair favours neither side. Pairs run while
// more(i) holds (at least one).
func pairedOverhead(more func(i int) bool, op func(k int, traced bool) time.Duration) float64 {
	var ratios []float64
	for i := 0; i == 0 || more(i); i++ {
		var plain, traced time.Duration
		if i%2 == 0 {
			plain = op(2*i, false)
			traced = op(2*i+1, true)
		} else {
			traced = op(2*i, true)
			plain = op(2*i+1, false)
		}
		ratios = append(ratios, traced.Seconds()/plain.Seconds())
	}
	return median(ratios) - 1
}
