// Command traceexport converts a flight-recorder timeline dump (the
// cablesim/cablereport -timeline flag) into Chrome trace-event JSON,
// loadable in chrome://tracing or https://ui.perfetto.dev.
//
// Usage:
//
//	traceexport -in timeline.json -o trace.json
//	traceexport < timeline.json > trace.json
//	traceexport -validate trace.json   # check a converted file
//
// Mapping: each flight cell becomes a trace process (pid), each link
// track a thread (tid) within it, both labeled with metadata events.
// Encode/decode/write-back spans become complete ("X") events whose ts
// is the virtual-time tick in microseconds — a stable, comparable
// x-axis across runs — and whose duration is a 1 µs placeholder (the
// recorder keeps no wall clock), so spans stay visible. Faults and
// raw-fallback degradations become instant ("i") events.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// timelineFile mirrors obs.FlightTimelineDump (duplicated here so the
// tool stays a standalone consumer of the documented JSON format).
type timelineFile struct {
	Window int            `json:"window"`
	Cells  []cellTimeline `json:"cells"`
}

type cellTimeline struct {
	Cell          string  `json:"cell"`
	Now           uint64  `json:"now"`
	DroppedEvents uint64  `json:"dropped_events"`
	Events        []event `json:"events"`
}

type event struct {
	VT    uint64 `json:"vt"`
	Kind  string `json:"kind"`
	Track string `json:"track"`
	Class string `json:"class"`
	Bits  uint32 `json:"bits"`
	Skip  bool   `json:"skip"`
}

// traceEvent is one Chrome trace-event entry (the JSON Array Format's
// event object; see the chromium trace-event documentation).
type traceEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	S    string                 `json:"s,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func main() {
	in, out, validate := parseArgs(os.Args[1:])
	if validate != "" {
		data, err := os.ReadFile(validate)
		if err != nil {
			fatal(err)
		}
		if err := validateTrace(data); err != nil {
			fatal(fmt.Errorf("%s: %v", validate, err))
		}
		fmt.Printf("%s: valid Chrome trace-event JSON\n", validate)
		return
	}

	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	tl, err := readTimeline(r)
	if err != nil {
		fatal(err)
	}
	tf := convert(tl)

	w := os.Stdout
	if out != "" {
		if w, err = os.Create(out); err != nil {
			fatal(err)
		}
	}
	err = json.NewEncoder(w).Encode(tf)
	// The trace is only on disk once Close succeeds.
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
}

// readTimeline decodes a -timeline dump. Any JSON object decodes into
// timelineFile, so the shape is checked: a file with no "cells" array,
// or a cell with no "events" member (a -windows dump has "tracks"
// there), is not a timeline and must not convert to an empty trace.
func readTimeline(r io.Reader) (*timelineFile, error) {
	var tl timelineFile
	if err := json.NewDecoder(r).Decode(&tl); err != nil {
		return nil, fmt.Errorf("parse timeline: %v", err)
	}
	if tl.Cells == nil {
		return nil, errors.New(`not a timeline dump: no "cells" array`)
	}
	for _, c := range tl.Cells {
		if c.Events == nil {
			return nil, fmt.Errorf(`not a timeline dump: cell %q has no "events" (is it a -windows file?)`, c.Cell)
		}
	}
	return &tl, nil
}

func parseArgs(args []string) (in, out, validate string) {
	usage := func() {
		fmt.Fprintln(os.Stderr, "usage: traceexport [-in timeline.json] [-o trace.json] | traceexport -validate trace.json")
		os.Exit(2)
	}
	for i := 0; i < len(args); i++ {
		next := func() string {
			i++
			if i >= len(args) {
				usage()
			}
			return args[i]
		}
		switch args[i] {
		case "-in", "--in":
			in = next()
		case "-o", "--o", "-out", "--out":
			out = next()
		case "-validate", "--validate":
			validate = next()
		case "-h", "-help", "--help":
			usage()
		default:
			fmt.Fprintf(os.Stderr, "traceexport: unknown flag %q\n", args[i])
			usage()
		}
	}
	return in, out, validate
}

// convert maps the timeline onto trace events. Cells are emitted in
// file order (the dump is already key-sorted), so conversion of a
// deterministic timeline is itself deterministic.
func convert(tl *timelineFile) *traceFile {
	tf := &traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	meta := func(pid, tid int, name, label string) {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: name, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]interface{}{"name": label},
		})
	}
	for ci, cell := range tl.Cells {
		pid := ci + 1
		meta(pid, 0, "process_name", cell.Cell)
		// Tracks get stable tids in first-appearance order.
		tids := map[string]int{}
		tidOf := func(track string) int {
			if t, ok := tids[track]; ok {
				return t
			}
			t := len(tids) + 1
			tids[track] = t
			meta(pid, t, "thread_name", track)
			return t
		}
		// Pre-register tracks in sorted order so tids don't depend on
		// which event kind happens to appear first.
		names := map[string]bool{}
		for _, e := range cell.Events {
			names[e.Track] = true
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			tidOf(n)
		}
		for _, e := range cell.Events {
			te := traceEvent{Name: e.Kind, Ts: float64(e.VT), Pid: pid, Tid: tidOf(e.Track)}
			switch e.Kind {
			case "fault", "degrade":
				te.Ph = "i"
				te.S = "t"
				if e.Bits > 0 {
					te.Args = map[string]interface{}{"bits": e.Bits}
				}
			default:
				te.Ph = "X"
				te.Dur = 1 // virtual spans have no extent; keep them visible
				args := map[string]interface{}{"bits": e.Bits}
				if e.Class != "" {
					args["class"] = e.Class
				}
				if e.Skip {
					args["skip"] = true
				}
				te.Args = args
			}
			tf.TraceEvents = append(tf.TraceEvents, te)
		}
	}
	return tf
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "traceexport: %v\n", err)
	os.Exit(1)
}
