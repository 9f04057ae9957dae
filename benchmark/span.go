package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced call batch: what ran, when, under which span, in
// which repetition. Parent is an index into the tracer's spans (-1 for
// a root).
type span struct {
	Name       string
	Start, End time.Duration // since the tracer was made
	Parent     int
	Rep        int
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op behind one pointer check, so
// the same workload code serves both runs. Only the goroutine that
// drives the workload may use a tracer; what another goroutine did is
// reported by the driving one, with add, once it has the times.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // open spans of the driving goroutine
	rep   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setRep stamps later spans with repetition r.
func (t *tracer) setRep(r int) {
	if t == nil {
		return
	}
	t.rep = r
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Rep: t.rep})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.spans[id].End = now
	t.stack = t.stack[:len(t.stack)-1]
}

// unwindTo closes every span opened after span id, which a panic left
// open.
func (t *tracer) unwindTo(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	for n := len(t.stack); n > 0 && t.stack[n-1] != id; n = len(t.stack) {
		t.spans[t.stack[n-1]].End = now
		t.stack = t.stack[:n-1]
	}
}

// add records a finished span under parent.
func (t *tracer) add(name string, start, end time.Time, parent int) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent, Rep: t.rep})
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome-trace JSON to path.
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]int{"id": i, "parent": s.Parent, "rep": s.Rep},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
