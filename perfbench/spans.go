package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a module. Busy is the
// summed duration of the calls the span stands for: End−Start for a
// single call, less than that for an aggregate of many short calls
// (cold-serial takes ~0.5 M steps per trial, so its step and
// legitimacy spans are aggregated per trial).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int64  `json:"calls"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Owner  string `json:"owner"`
}

// tracer keeps the spans of one goroutine in memory. A nil *tracer
// records nothing; the untraced run passes nil everywhere.
type tracer struct {
	owner string
	base  time.Time
	spans []span
	open  []int // stack of open span indices
	trace int
}

func newTracer(owner string, base time.Time) *tracer {
	return &tracer{owner: owner, base: base}
}

// setTrace starts a new trace id (one per trial or fault episode).
func (t *tracer) setTrace(id int) {
	if t != nil {
		t.trace = id
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Trace: t.trace, Calls: 1, Owner: t.owner})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = t.now()
	s.Busy = s.End - s.Start
	t.open = t.open[:len(t.open)-1]
}

// aggregate records calls short calls to name that together took busy,
// between start and the present, as one child of the open span.
func (t *tracer) aggregate(name string, start int64, busy time.Duration, calls int64) {
	if t == nil || calls == 0 {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: t.now(), Busy: int64(busy), Calls: calls, Parent: parent, Trace: t.trace, Owner: t.owner})
}

// busy sums the busy time and call count of the spans named name in
// trace id.
func (t *tracer) busy(trace int, name string) (time.Duration, int64) {
	if t == nil {
		return 0, 0
	}
	var d, n int64
	for _, s := range t.spans {
		if s.Trace == trace && s.Name == name {
			d += s.Busy
			n += s.Calls
		}
	}
	return time.Duration(d), n
}

// selfTimes derives each span name's self time — its busy time minus
// the busy time of its direct children — summed over all spans of the
// given tracers.
func selfTimes(ts ...*tracer) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, t := range ts {
		if t == nil {
			continue
		}
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.Busy
			}
		}
		for i, s := range t.spans {
			out[s.Name] += time.Duration(s.Busy - child[i])
		}
	}
	return out
}

// writeSpans writes every span as one JSON line to dir/name.
func writeSpans(dir, name string, ts ...*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ts {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTable renders self times in descending order, one "name ms" pair
// per entry, for the run log.
func selfTable(self map[string]time.Duration) []string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = fmt.Sprintf("%s=%.3fms", n, ms(self[n]))
	}
	return out
}
