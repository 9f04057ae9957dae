package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
)

// This file is the virtual-time flight recorder: windowed time-series
// deltas and a span/event timeline for every link end a simulation
// drives, stamped with the simulation's own access tick instead of wall
// clock. Virtual time is a pure function of the workload, so recorder
// dumps are byte-identical at any -parallel setting, with the cell memo
// on or off, and at any GOMAXPROCS — the same contract the metrics
// registry keeps.
//
// Layering:
//
//   - Recorder: one per simulation. Owns the virtual clock (advanced by
//     the sim's access loop via Tick), a set of per-link Tracks whose
//     counters seal into bounded window rings at window boundaries, and
//     one bounded event ring for the timeline.
//   - Track: one per link end ("cable" for the single-link simulators,
//     "link1..linkN" for the multi-chip coherence study).
//   - Flight: a keyed collection of Recorders for multi-cell experiment
//     runs (the -windows/-timeline CLI flags). Each distinct cell
//     digest registers exactly one recorder regardless of scheduling,
//     which is what makes whole-run dumps deterministic.
//
// The disabled path is a nil *Recorder: one pointer check and zero
// allocations on the encode path.

// Default flight-recorder bounds. Window is in virtual-time ticks (one
// tick per simulated access); the rings bound memory for arbitrarily
// long runs by dropping oldest entries (drop counts are reported, so
// truncation is visible, and deterministic — drops depend only on event
// counts).
const (
	DefaultFlightWindow = 2048
	defaultMaxWindows   = 1024
	defaultMaxEvents    = 8192
)

// FlightConfig sizes a Recorder (and every recorder a Flight creates).
type FlightConfig struct {
	// Window is the virtual-time window length in ticks (simulated
	// accesses). 0 means DefaultFlightWindow.
	Window int
	// MaxWindows bounds each track's sealed-window ring; oldest windows
	// are dropped (and counted) beyond it. 0 means 1024.
	MaxWindows int
	// MaxEvents bounds the recorder's timeline ring. 0 means 8192.
	MaxEvents int
}

func (c FlightConfig) withDefaults() FlightConfig {
	if c.Window <= 0 {
		c.Window = DefaultFlightWindow
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = defaultMaxWindows
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = defaultMaxEvents
	}
	return c
}

// EventKind classifies one timeline entry.
type EventKind uint8

// Timeline event kinds. Encode/decode/writeback kinds are spans (work
// with an extent, which traceexport draws as a slice); fault and
// degrade are instants.
const (
	EvEncode   EventKind = iota // home-end fill encode
	EvDecode                    // remote-end fill decode
	EvWBEncode                  // remote-end write-back encode
	EvWBDecode                  // home-end write-back decode
	EvFault                     // injector corrupted a wire image
	EvDegrade                   // decode error degraded to a raw resend
	numEventKinds
)

// String names the kind for exports.
func (k EventKind) String() string {
	switch k {
	case EvEncode:
		return "encode"
	case EvDecode:
		return "decode"
	case EvWBEncode:
		return "wb-encode"
	case EvWBDecode:
		return "wb-decode"
	case EvFault:
		return "fault"
	case EvDegrade:
		return "degrade"
	}
	return "unknown"
}

// span reports whether the kind is a span (vs an instant).
func (k EventKind) span() bool { return k <= EvWBDecode }

// EncodeClass is the outcome of one per-line encode decision — the
// classes whose per-benchmark mix explains the Fig 11/12 ordering.
type EncodeClass uint8

// Encode outcome classes.
const (
	ClassRaw        EncodeClass = iota // uncompressed fallback won
	ClassStandalone                    // compressed without references
	ClassDiff1                         // DIFF against 1 reference
	ClassDiff2                         // DIFF against 2 references
	ClassDiff3                         // DIFF against 3 references
	NumClasses
)

// String names the class for reports.
func (c EncodeClass) String() string {
	switch c {
	case ClassRaw:
		return "raw"
	case ClassStandalone:
		return "standalone"
	case ClassDiff1:
		return "diff-1ref"
	case ClassDiff2:
		return "diff-2ref"
	case ClassDiff3:
		return "diff-3ref"
	}
	return "unknown"
}

// DiffClass returns the class for a DIFF outcome with n references
// (n in 1..3).
func DiffClass(n int) EncodeClass {
	switch n {
	case 1:
		return ClassDiff1
	case 2:
		return ClassDiff2
	default:
		return ClassDiff3
	}
}

// Window accumulates one virtual-time window's deltas for one track.
// All fields are pure functions of the simulated transfer stream.
type Window struct {
	// Start/End bound the window in virtual time: (Start, End].
	Start, End uint64
	// Transfers counts line transfers (fills + write-backs); SourceBits
	// and WireBits are their pre/post-compression totals (wire includes
	// raw-fallback resends); Toggles counts wire bit transitions.
	Transfers  uint64
	SourceBits uint64
	WireBits   uint64
	Toggles    uint64
	// Encodes/PayloadBits/Skips/Classes describe the home-end fill
	// encodes in the window (Classes indexed by EncodeClass).
	Encodes     uint64
	PayloadBits uint64
	Skips       uint64
	Classes     [NumClasses]uint64
	// Decodes counts fill + write-back decodes; Writebacks counts
	// write-back encodes.
	Decodes    uint64
	Writebacks uint64
	// Faults/DecodeErrors/RawFallbacks account the degradation pipeline.
	Faults       uint64
	DecodeErrors uint64
	RawFallbacks uint64
}

// active reports whether anything landed in the window.
func (w Window) active() bool {
	z := w
	z.Start, z.End = 0, 0
	return z != Window{}
}

// Event is one timeline entry.
type Event struct {
	VT    uint64
	Kind  EventKind
	Track int32
	Class EncodeClass
	Skip  bool
	Bits  uint32
}

// Track is one link end's window accumulator inside a Recorder. Feed it
// only through the owning Recorder's methods (which take the lock).
type Track struct {
	name    string
	index   int32
	cur     Window
	ring    []Window
	next    int
	wrapped bool
	dropped uint64
}

// Name returns the track's name.
func (t *Track) Name() string { return t.name }

// Recorder is one simulation's flight recorder. Every operation takes
// the recorder mutex, so a Dump may run on another goroutine than the
// simulation feeding it (uncontended in the common one-writer case).
type Recorder struct {
	mu        sync.Mutex
	cfg       FlightConfig
	now       uint64
	tracks    []*Track
	byName    map[string]*Track
	events    []Event
	evNext    int
	evWrapped bool
	evDropped uint64
}

// NewRecorder builds a recorder with the given bounds (zero fields take
// defaults).
func NewRecorder(cfg FlightConfig) *Recorder {
	return &Recorder{cfg: cfg.withDefaults(), byName: map[string]*Track{}}
}

// Config returns the recorder's effective (defaulted) configuration.
func (r *Recorder) Config() FlightConfig { return r.cfg }

// Track returns (creating on first use) the named per-link track.
// Simulators create tracks in deterministic construction order.
func (r *Recorder) Track(name string) *Track {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.byName[name]; ok {
		return t
	}
	t := &Track{name: name, index: int32(len(r.tracks))}
	r.tracks = append(r.tracks, t)
	r.byName[name] = t
	return t
}

// Tick advances virtual time by one simulated access. Crossing a window
// boundary seals every track's open window into its ring.
func (r *Recorder) Tick() {
	r.mu.Lock()
	r.now++
	if r.now%uint64(r.cfg.Window) == 0 {
		for _, t := range r.tracks {
			r.sealLocked(t)
		}
	}
	r.mu.Unlock()
}

// Now returns the current virtual time (ticks so far).
func (r *Recorder) Now() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.now
}

func (r *Recorder) sealLocked(t *Track) { r.sealAtLocked(t, r.now) }

// sealAtLocked closes t's open window at virtual time end and opens the
// next one there. Tick-driven recording always seals at r.now (which
// sits exactly on a window boundary when Tick calls it); vt-driven
// recording seals at explicit boundaries.
func (r *Recorder) sealAtLocked(t *Track, end uint64) {
	t.cur.End = end
	if len(t.ring) < r.cfg.MaxWindows {
		t.ring = append(t.ring, t.cur)
	} else {
		t.ring[t.next] = t.cur
		t.next++
		if t.next == len(t.ring) {
			t.next = 0
		}
		t.wrapped = true
		t.dropped++
	}
	t.cur = Window{Start: end}
}

// advanceTrackLocked seals every window boundary t crosses on the way
// to virtual time vt. Track starts are always boundary-aligned in
// vt-driven recording (they begin at 0 and every seal lands on a
// multiple of the window length), so the loop emits exactly the same
// window sequence a Tick-driven recorder would, empty windows included
// — which is what keeps window dumps a pure function of the event
// stream.
func (r *Recorder) advanceTrackLocked(t *Track, vt uint64) {
	w := uint64(r.cfg.Window)
	for vt >= t.cur.Start+w {
		r.sealAtLocked(t, t.cur.Start+w)
	}
}

func (r *Recorder) eventLocked(e Event) {
	e.VT = r.now
	if len(r.events) < r.cfg.MaxEvents {
		r.events = append(r.events, e)
		return
	}
	r.events[r.evNext] = e
	r.evNext++
	if r.evNext == len(r.events) {
		r.evNext = 0
	}
	r.evWrapped = true
	r.evDropped++
}

// Transfer records one line transfer on a track: pre-compression source
// bits, post-quantization wire bits (raw-fallback resends included) and
// the wire-toggle delta.
func (r *Recorder) Transfer(t *Track, sourceBits, wireBits int, toggles uint64) {
	r.mu.Lock()
	t.cur.Transfers++
	t.cur.SourceBits += uint64(sourceBits)
	t.cur.WireBits += uint64(wireBits)
	t.cur.Toggles += toggles
	r.mu.Unlock()
}

// Encode records one home-end fill encode: the winning class, the
// pre-quantization payload bits, and whether the signature search was
// threshold-skipped.
func (r *Recorder) Encode(t *Track, class EncodeClass, payloadBits int, skip bool) {
	r.mu.Lock()
	t.cur.Encodes++
	t.cur.PayloadBits += uint64(payloadBits)
	if skip {
		t.cur.Skips++
	}
	if class < NumClasses {
		t.cur.Classes[class]++
	}
	r.eventLocked(Event{Kind: EvEncode, Track: t.index, Class: class, Skip: skip, Bits: uint32(payloadBits)})
	r.mu.Unlock()
}

// Span records a decode or write-back span (EvDecode, EvWBEncode,
// EvWBDecode) with the payload bits it carried.
func (r *Recorder) Span(t *Track, kind EventKind, bits int) {
	r.mu.Lock()
	switch kind {
	case EvDecode, EvWBDecode:
		t.cur.Decodes++
	case EvWBEncode:
		t.cur.Writebacks++
	}
	r.eventLocked(Event{Kind: kind, Track: t.index, Bits: uint32(bits)})
	r.mu.Unlock()
}

// Fault records an injector-corrupted wire image on a track.
func (r *Recorder) Fault(t *Track) {
	r.mu.Lock()
	t.cur.Faults++
	r.eventLocked(Event{Kind: EvFault, Track: t.index})
	r.mu.Unlock()
}

// Degrade records a decode error recovered by a raw resend of
// resendBits wire bits.
func (r *Recorder) Degrade(t *Track, resendBits int) {
	r.mu.Lock()
	t.cur.DecodeErrors++
	t.cur.RawFallbacks++
	r.eventLocked(Event{Kind: EvDegrade, Track: t.index, Bits: uint32(resendBits)})
	r.mu.Unlock()
}

// The *At methods below are the explicit-virtual-time feeding API used
// by the discrete-event topology engine (internal/topo): instead of a
// global Tick per simulated access, each per-link track advances to
// the event's own completion time, so tracks with very different
// traffic rates still seal identical window grids. They are
// window-only — no timeline events are emitted — because the topology
// engine records during its serial timing-replay pass, where windows
// are the deliverable and a 10M-transfer soak would cycle the event
// ring thousands of times over for nothing.

// TransferAt records one line transfer on t at virtual time vt,
// sealing any window boundaries crossed since t's previous event.
// Per-track vt must be monotonically non-decreasing.
func (r *Recorder) TransferAt(t *Track, vt uint64, sourceBits, wireBits int, toggles uint64) {
	r.mu.Lock()
	r.advanceTrackLocked(t, vt)
	t.cur.Transfers++
	t.cur.SourceBits += uint64(sourceBits)
	t.cur.WireBits += uint64(wireBits)
	t.cur.Toggles += toggles
	r.mu.Unlock()
}

// FaultAt records an injector-corrupted wire image on t at virtual
// time vt (window-only; no timeline event).
func (r *Recorder) FaultAt(t *Track, vt uint64) {
	r.mu.Lock()
	r.advanceTrackLocked(t, vt)
	t.cur.Faults++
	r.mu.Unlock()
}

// DegradeAt records a decode error recovered by a raw resend on t at
// virtual time vt (window-only; no timeline event).
func (r *Recorder) DegradeAt(t *Track, vt uint64) {
	r.mu.Lock()
	r.advanceTrackLocked(t, vt)
	t.cur.DecodeErrors++
	t.cur.RawFallbacks++
	r.mu.Unlock()
}

// AdvanceTo seals every track's crossed window boundaries through vt
// and moves the recorder clock forward to vt (never backward), so the
// final partial window in a Dump ends at the simulation's makespan.
// Callers finish a vt-driven recording with one AdvanceTo(makespan).
func (r *Recorder) AdvanceTo(vt uint64) {
	r.mu.Lock()
	for _, t := range r.tracks {
		r.advanceTrackLocked(t, vt)
	}
	if vt > r.now {
		r.now = vt
	}
	r.mu.Unlock()
}

// WindowDump is one exported window: the raw deltas plus derived rates
// (all pure integer arithmetic over deterministic counters, so float
// formatting is stable).
type WindowDump struct {
	Start        uint64 `json:"start"`
	End          uint64 `json:"end"`
	Transfers    uint64 `json:"transfers"`
	SourceBits   uint64 `json:"source_bits"`
	WireBits     uint64 `json:"wire_bits"`
	Toggles      uint64 `json:"toggles"`
	Encodes      uint64 `json:"encodes"`
	PayloadBits  uint64 `json:"payload_bits"`
	Skips        uint64 `json:"skips"`
	Raw          uint64 `json:"raw"`
	Standalone   uint64 `json:"standalone"`
	Diff1        uint64 `json:"diff1"`
	Diff2        uint64 `json:"diff2"`
	Diff3        uint64 `json:"diff3"`
	Decodes      uint64 `json:"decodes"`
	Writebacks   uint64 `json:"writebacks"`
	Faults       uint64 `json:"faults,omitempty"`
	DecodeErrors uint64 `json:"decode_errors,omitempty"`
	RawFallbacks uint64 `json:"raw_fallbacks,omitempty"`
	// Derived per-window rates: wire bits per transferred line, ratio of
	// threshold skips to encodes, faults and raw fallbacks per transfer,
	// and toggles per wire bit.
	BitsPerLine  float64 `json:"bits_per_line"`
	SkipRate     float64 `json:"skip_rate"`
	FaultRate    float64 `json:"fault_rate,omitempty"`
	FallbackRate float64 `json:"fallback_rate,omitempty"`
	ToggleRate   float64 `json:"toggle_rate"`
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func dumpWindow(w Window) WindowDump {
	return WindowDump{
		Start: w.Start, End: w.End,
		Transfers: w.Transfers, SourceBits: w.SourceBits, WireBits: w.WireBits, Toggles: w.Toggles,
		Encodes: w.Encodes, PayloadBits: w.PayloadBits, Skips: w.Skips,
		Raw: w.Classes[ClassRaw], Standalone: w.Classes[ClassStandalone],
		Diff1: w.Classes[ClassDiff1], Diff2: w.Classes[ClassDiff2], Diff3: w.Classes[ClassDiff3],
		Decodes: w.Decodes, Writebacks: w.Writebacks,
		Faults: w.Faults, DecodeErrors: w.DecodeErrors, RawFallbacks: w.RawFallbacks,
		BitsPerLine:  ratio(w.WireBits, w.Transfers),
		SkipRate:     ratio(w.Skips, w.Encodes),
		FaultRate:    ratio(w.Faults, w.Transfers),
		FallbackRate: ratio(w.RawFallbacks, w.Transfers),
		ToggleRate:   ratio(w.Toggles, w.WireBits),
	}
}

// TrackDump is one exported track: sealed windows oldest-first, plus
// the open partial window when it has activity.
type TrackDump struct {
	Name           string       `json:"name"`
	DroppedWindows uint64       `json:"dropped_windows,omitempty"`
	Windows        []WindowDump `json:"windows"`
}

// EventDump is one exported timeline entry.
type EventDump struct {
	VT    uint64 `json:"vt"`
	Kind  string `json:"kind"`
	Track string `json:"track"`
	Class string `json:"class,omitempty"`
	Bits  uint32 `json:"bits,omitempty"`
	Skip  bool   `json:"skip,omitempty"`
}

// RecorderDump is a recorder's full exported state.
type RecorderDump struct {
	Now           uint64      `json:"now"`
	Tracks        []TrackDump `json:"tracks"`
	DroppedEvents uint64      `json:"dropped_events,omitempty"`
	Events        []EventDump `json:"events"`
}

// Dump snapshots the recorder: a pure function of the simulated
// workload.
func (r *Recorder) Dump() RecorderDump {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := RecorderDump{Now: r.now, DroppedEvents: r.evDropped}
	d.Tracks = make([]TrackDump, 0, len(r.tracks))
	for _, t := range r.tracks {
		td := TrackDump{Name: t.name, DroppedWindows: t.dropped}
		var ws []Window
		if t.wrapped {
			ws = append(ws, t.ring[t.next:]...)
			ws = append(ws, t.ring[:t.next]...)
		} else {
			ws = t.ring
		}
		td.Windows = make([]WindowDump, 0, len(ws)+1)
		for _, w := range ws {
			td.Windows = append(td.Windows, dumpWindow(w))
		}
		if t.cur.active() {
			part := t.cur
			part.End = r.now
			td.Windows = append(td.Windows, dumpWindow(part))
		}
		d.Tracks = append(d.Tracks, td)
	}
	var evs []Event
	if r.evWrapped {
		evs = append(evs, r.events[r.evNext:]...)
		evs = append(evs, r.events[:r.evNext]...)
	} else {
		evs = r.events
	}
	d.Events = make([]EventDump, 0, len(evs))
	for _, e := range evs {
		ed := EventDump{VT: e.VT, Kind: e.Kind.String(), Bits: e.Bits, Skip: e.Skip}
		if int(e.Track) < len(r.tracks) {
			ed.Track = r.tracks[e.Track].name
		}
		if e.Kind == EvEncode {
			ed.Class = e.Class.String()
		}
		d.Events = append(d.Events, ed)
	}
	return d
}

// Flight collects one Recorder per distinct simulation cell for a
// multi-cell experiment run. Recorder(key) registers the first recorder
// requested for a key and hands duplicate requesters nil, the disabled
// recorder: with the cell memo on, only the single-flight compute owner
// ever asks; with it off, repeated runs of an identical cell would
// record identical content, so only the first run records. Either way
// the collection — and its dumps — depends only on the set of distinct
// cells, not on scheduling. The mutex guards the key map: cells on
// different workers register concurrently.
type Flight struct {
	cfg FlightConfig

	mu   sync.Mutex
	recs map[string]*Recorder
}

// NewFlight builds a flight collection; every recorder it creates
// shares cfg.
func NewFlight(cfg FlightConfig) *Flight {
	return &Flight{cfg: cfg.withDefaults(), recs: map[string]*Recorder{}}
}

// Config returns the flight's effective recorder configuration.
func (f *Flight) Config() FlightConfig { return f.cfg }

// Recorder returns the recorder for the cell key on first request and
// nil — the disabled recorder every hook checks for — afterwards
// (identical cells record identical content, so not recording repeats
// loses nothing and keeps dumps scheduling-independent).
func (f *Flight) Recorder(key string) *Recorder {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.recs[key]; ok {
		return nil
	}
	r := NewRecorder(f.cfg)
	f.recs[key] = r
	return r
}

// Lookup returns the registered recorder for a key (nil if none).
func (f *Flight) Lookup(key string) *Recorder {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.recs[key]
}

// Keys lists registered cell keys, sorted.
func (f *Flight) Keys() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.recs))
	for k := range f.recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FlightCellWindows is one cell's windowed time series.
type FlightCellWindows struct {
	Cell   string      `json:"cell"`
	Now    uint64      `json:"now"`
	Tracks []TrackDump `json:"tracks"`
}

// FlightWindowsDump is the -windows file format.
type FlightWindowsDump struct {
	Window int                 `json:"window"`
	Cells  []FlightCellWindows `json:"cells"`
}

// FlightCellTimeline is one cell's event timeline.
type FlightCellTimeline struct {
	Cell          string      `json:"cell"`
	Now           uint64      `json:"now"`
	DroppedEvents uint64      `json:"dropped_events,omitempty"`
	Events        []EventDump `json:"events"`
}

// FlightTimelineDump is the -timeline file format (the tools/traceexport
// input).
type FlightTimelineDump struct {
	Window int                  `json:"window"`
	Cells  []FlightCellTimeline `json:"cells"`
}

// snapshot dumps every registered recorder in key order.
func (f *Flight) snapshot() (keys []string, dumps []RecorderDump) {
	keys = f.Keys()
	dumps = make([]RecorderDump, len(keys))
	for i, k := range keys {
		dumps[i] = f.Lookup(k).Dump()
	}
	return keys, dumps
}

// WindowsDump exports every cell's windowed time series, cells sorted
// by key.
func (f *Flight) WindowsDump() FlightWindowsDump {
	keys, dumps := f.snapshot()
	out := FlightWindowsDump{Window: f.cfg.Window, Cells: make([]FlightCellWindows, len(keys))}
	for i, k := range keys {
		out.Cells[i] = FlightCellWindows{Cell: k, Now: dumps[i].Now, Tracks: dumps[i].Tracks}
	}
	return out
}

// TimelineDump exports every cell's event timeline, cells sorted by
// key.
func (f *Flight) TimelineDump() FlightTimelineDump {
	keys, dumps := f.snapshot()
	out := FlightTimelineDump{Window: f.cfg.Window, Cells: make([]FlightCellTimeline, len(keys))}
	for i, k := range keys {
		out.Cells[i] = FlightCellTimeline{
			Cell: k, Now: dumps[i].Now,
			DroppedEvents: dumps[i].DroppedEvents, Events: dumps[i].Events,
		}
	}
	return out
}

// WriteWindowsJSON writes the windowed time series as indented JSON.
// Struct field order is fixed and cells are key-sorted, so the output
// is byte-stable.
func (f *Flight) WriteWindowsJSON(w io.Writer) error {
	return writeJSON(w, f.WindowsDump(), true)
}

// WriteTimelineJSON writes the event timeline as compact JSON (timeline
// files carry thousands of events; the converter re-shapes them).
func (f *Flight) WriteTimelineJSON(w io.Writer) error {
	return writeJSON(w, f.TimelineDump(), false)
}

// WriteWindowsFile dumps the windows JSON to path (the -windows flag).
func (f *Flight) WriteWindowsFile(path string) error {
	return writeJSONFile(path, f.WriteWindowsJSON)
}

// WriteTimelineFile dumps the timeline JSON to path (the -timeline
// flag).
func (f *Flight) WriteTimelineFile(path string) error {
	return writeJSONFile(path, f.WriteTimelineJSON)
}

func writeJSON(w io.Writer, v interface{}, indent bool) error {
	var b []byte
	var err error
	if indent {
		b, err = json.MarshalIndent(v, "", "  ")
	} else {
		b, err = json.Marshal(v)
	}
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

func writeJSONFile(path string, write func(io.Writer) error) error {
	var sb strings.Builder
	if err := write(&sb); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
