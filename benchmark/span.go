package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program by the harness. Times are nanoseconds since the tracer
// started; parent is the id of the span that caused this one, -1 for a
// root.
type span struct {
	id, parent int
	// name is "<layer>.<call>", e.g. "core.run_cell".
	name       string
	start, end int64
	// pass and cell identify the request the span belongs to (-1 when
	// it belongs to none); n is the call's size — ranks of a cell,
	// cells of a lease.
	pass, cell, n int
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced and traced runs share one loop.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(parent int, name string, pass, cell, n int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: now, end: -1, pass: pass, cell: cell, n: n})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// call records fn as one span.
func (t *tracer) call(parent int, name string, pass, cell, n int, fn func() error) error {
	id := t.begin(parent, name, pass, cell, n)
	err := fn()
	t.end(id)
	return err
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns, in the unit conv yields, the length of every span
// called name that keep accepts (nil keeps all).
func durations(spans []span, name string, conv func(time.Duration) float64, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name && (keep == nil || keep(s)) {
			out = append(out, conv(s.dur()))
		}
	}
	return out
}

// checkSpans verifies the tree is well formed: every span closed and
// non-negative, every child inside its parent. It returns each span's
// self time — its duration minus the part of it child spans cover.
func checkSpans(spans []span) (self []int64, err error) {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.end < s.start {
			return nil, fmt.Errorf("span %d %s: not closed or negative (%d..%d)", s.id, s.name, s.start, s.end)
		}
		if s.parent < 0 {
			continue
		}
		if s.parent >= len(spans) {
			return nil, fmt.Errorf("span %d %s: unknown parent %d", s.id, s.name, s.parent)
		}
		p := spans[s.parent]
		if s.start < p.start || s.end > p.end {
			return nil, fmt.Errorf("span %d %s (%d..%d) leaves its parent %d %s (%d..%d)",
				s.id, s.name, s.start, s.end, p.id, p.name, p.start, p.end)
		}
		children[s.parent] = append(children[s.parent], s.id)
	}
	self = make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].start < spans[kids[j]].start })
		// Children of a pooled call overlap, so subtract the union.
		covered, edge := int64(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < edge {
				lo = edge
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.id] = s.end - s.start - covered
		if self[s.id] < 0 {
			return nil, fmt.Errorf("span %d %s: negative self time", s.id, s.name)
		}
	}
	return self, nil
}

// writeChrome writes the spans as one Chrome Trace Event file. Events
// on one track must nest, so each span goes on the first track —
// its parent's first — whose innermost open span contains it or
// which has nothing open; pooled cells therefore fan out over tracks.
func writeChrome(path, workload string, spans []span) error {
	self, err := checkSpans(spans)
	if err != nil {
		return err
	}
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return spans[order[i]].start < spans[order[j]].start })
	track := make([]int, len(spans))
	var open [][]int // per track, the stack of spans still open
	fits := func(k int, s span) bool {
		for len(open[k]) > 0 && spans[open[k][len(open[k])-1]].end <= s.start {
			open[k] = open[k][:len(open[k])-1]
		}
		if len(open[k]) == 0 {
			return true
		}
		top := spans[open[k][len(open[k])-1]]
		return top.start <= s.start && s.end <= top.end
	}
	events := make([]event, 0, len(spans))
	for _, i := range order {
		s := spans[i]
		tid := -1
		if s.parent >= 0 && fits(track[s.parent], s) {
			tid = track[s.parent]
		}
		for k := 0; tid < 0 && k < len(open); k++ {
			if fits(k, s) {
				tid = k
			}
		}
		if tid < 0 {
			tid = len(open)
			open = append(open, nil)
		}
		track[i] = tid
		open[tid] = append(open[tid], i)
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]int64{"pass": int64(s.pass), "cell": int64(s.cell), "n": int64(s.n), "self_ns": self[i]},
		})
	}
	doc := struct {
		TraceEvents []event           `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}{events, map[string]string{"clock": "wall", "workload": workload}}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
