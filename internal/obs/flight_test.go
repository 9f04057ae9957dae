package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// drive feeds a small fixed workload through a recorder: n ticks with
// one transfer+encode per tick and a decode every other tick.
func drive(r *Recorder, t *Track, n int) {
	for i := 0; i < n; i++ {
		r.Tick()
		r.Transfer(t, 512, 300+i%7, uint64(100+i%13))
		r.Encode(t, EncodeClass(i%int(NumClasses)), 280+i%5, i%10 == 0)
		if i%2 == 0 {
			r.Span(t, EvDecode, 280)
		}
	}
}

func TestRecorderWindowSealing(t *testing.T) {
	r := NewRecorder(FlightConfig{Window: 8})
	tr := r.Track("cable")
	drive(r, tr, 20) // 2 sealed windows of 8, partial window of 4

	d := r.Dump()
	if d.Now != 20 {
		t.Fatalf("now = %d, want 20", d.Now)
	}
	if len(d.Tracks) != 1 || d.Tracks[0].Name != "cable" {
		t.Fatalf("tracks = %+v", d.Tracks)
	}
	ws := d.Tracks[0].Windows
	if len(ws) != 3 {
		t.Fatalf("got %d windows, want 2 sealed + 1 partial", len(ws))
	}
	bounds := [][2]uint64{{0, 8}, {8, 16}, {16, 20}}
	var transfers, encodes, decodes uint64
	for i, w := range ws {
		if w.Start != bounds[i][0] || w.End != bounds[i][1] {
			t.Fatalf("window %d = (%d,%d], want (%d,%d]", i, w.Start, w.End, bounds[i][0], bounds[i][1])
		}
		transfers += w.Transfers
		encodes += w.Encodes
		decodes += w.Decodes
	}
	if transfers != 20 || encodes != 20 || decodes != 10 {
		t.Fatalf("totals transfers=%d encodes=%d decodes=%d, want 20/20/10", transfers, encodes, decodes)
	}
	// Class counts across the whole run must sum to the encode count.
	var classes uint64
	for _, w := range ws {
		classes += w.Raw + w.Standalone + w.Diff1 + w.Diff2 + w.Diff3
	}
	if classes != encodes {
		t.Fatalf("class sum %d != encodes %d", classes, encodes)
	}
}

func TestRecorderDerivedRates(t *testing.T) {
	r := NewRecorder(FlightConfig{Window: 16})
	tr := r.Track("cable")
	for i := 0; i < 4; i++ {
		r.Tick()
		r.Transfer(tr, 512, 256, 64)
		r.Encode(tr, ClassDiff1, 200, i == 0)
	}
	r.Fault(tr)
	r.Degrade(tr, 512)

	// Nothing sealed yet: the dump exposes the open window as a partial.
	w := r.Dump().Tracks[0].Windows[0]
	if w.BitsPerLine != 256 {
		t.Fatalf("bits_per_line = %v, want 256", w.BitsPerLine)
	}
	if w.SkipRate != 0.25 {
		t.Fatalf("skip_rate = %v, want 0.25", w.SkipRate)
	}
	if w.FaultRate != 0.25 || w.FallbackRate != 0.25 {
		t.Fatalf("fault/fallback = %v/%v, want 0.25/0.25", w.FaultRate, w.FallbackRate)
	}
	if w.ToggleRate != 0.25 { // 4*64 toggles over 4*256 wire bits
		t.Fatalf("toggle_rate = %v, want 0.25", w.ToggleRate)
	}
}

// TestRecorderRingBounds drives past both ring limits and checks drops
// are counted and the survivors are the newest entries in order.
func TestRecorderRingBounds(t *testing.T) {
	r := NewRecorder(FlightConfig{Window: 2, MaxWindows: 3, MaxEvents: 5})
	tr := r.Track("cable")
	drive(r, tr, 20) // 10 sealable windows, 30 events

	d := r.Dump()
	td := d.Tracks[0]
	// 10 seals with a ring of 3 keeps the newest 3, plus the open
	// partial (the final iteration records after the tick at 20 seals).
	if len(td.Windows) != 4 {
		t.Fatalf("got %d windows, want 3 ring survivors + 1 partial", len(td.Windows))
	}
	if td.DroppedWindows != 7 {
		t.Fatalf("dropped_windows = %d, want 7", td.DroppedWindows)
	}
	for i := 1; i < len(td.Windows); i++ {
		if td.Windows[i].Start != td.Windows[i-1].End {
			t.Fatalf("surviving windows not contiguous: %+v", td.Windows)
		}
	}
	if td.Windows[len(td.Windows)-1].End != 20 {
		t.Fatalf("newest window end = %d, want 20", td.Windows[len(td.Windows)-1].End)
	}
	if len(d.Events) != 5 {
		t.Fatalf("got %d events, want ring bound 5", len(d.Events))
	}
	if d.DroppedEvents != 25 {
		t.Fatalf("dropped_events = %d, want 25", d.DroppedEvents)
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].VT < d.Events[i-1].VT {
			t.Fatalf("event ring not oldest-first: %+v", d.Events)
		}
	}
}

// TestFlightRecorderDedup: the first request per key registers; later
// requests get nil, the disabled recorder, so a repeated cell records
// nothing.
func TestFlightRecorderDedup(t *testing.T) {
	f := NewFlight(FlightConfig{Window: 4})
	a := f.Recorder("cell-a")
	dup := f.Recorder("cell-a")
	b := f.Recorder("cell-b")
	if a == nil || b == nil {
		t.Fatal("first request for a key returned no recorder")
	}
	if dup != nil {
		t.Fatal("duplicate key was handed a recorder; want nil (nobody reads a repeat's recording)")
	}
	if f.Lookup("cell-a") != a || f.Lookup("cell-b") != b {
		t.Fatal("Lookup does not return the first-registered recorder")
	}
	if got := f.Keys(); len(got) != 2 || got[0] != "cell-a" || got[1] != "cell-b" {
		t.Fatalf("Keys() = %v", got)
	}

	at := a.Track("cable")
	a.Tick()
	a.Transfer(at, 512, 300, 2)

	d := f.WindowsDump()
	if len(d.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(d.Cells))
	}
	if w := d.Cells[0].Tracks[0].Windows; len(w) != 1 || w[0].WireBits != 300 {
		t.Fatalf("cell-a windows = %+v, want the registered recorder's 300 wire bits", w)
	}
}

// TestFlightDumpByteStable: two structurally identical flights produce
// byte-identical deterministic JSON, and repeated dumps of one flight
// are stable too.
func TestFlightDumpByteStable(t *testing.T) {
	build := func() *Flight {
		f := NewFlight(FlightConfig{Window: 8})
		for _, key := range []string{"cell-b", "cell-a"} {
			r := f.Recorder(key)
			drive(r, r.Track("cable"), 20)
			r.Fault(r.Track("cable"))
		}
		return f
	}
	var w1, w2, t1, t2 bytes.Buffer
	f1, f2 := build(), build()
	if err := f1.WriteWindowsJSON(&w1); err != nil {
		t.Fatal(err)
	}
	if err := f2.WriteWindowsJSON(&w2); err != nil {
		t.Fatal(err)
	}
	if err := f1.WriteTimelineJSON(&t1); err != nil {
		t.Fatal(err)
	}
	if err := f2.WriteTimelineJSON(&t2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("windows dumps differ between identical flights")
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatal("timeline dumps differ between identical flights")
	}
	// Cells must come out key-sorted regardless of registration order.
	var wd FlightWindowsDump
	if err := json.Unmarshal(w1.Bytes(), &wd); err != nil {
		t.Fatal(err)
	}
	if wd.Cells[0].Cell != "cell-a" || wd.Cells[1].Cell != "cell-b" {
		t.Fatalf("cells not key-sorted: %s, %s", wd.Cells[0].Cell, wd.Cells[1].Cell)
	}
	if !strings.Contains(t1.String(), `"kind":"fault"`) {
		t.Fatal("timeline missing the fault event")
	}
}

func TestEventKindStrings(t *testing.T) {
	want := map[EventKind]string{
		EvEncode: "encode", EvDecode: "decode",
		EvWBEncode: "wb-encode", EvWBDecode: "wb-decode",
		EvFault: "fault", EvDegrade: "degrade",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if !EvWBDecode.span() || EvFault.span() {
		t.Fatal("span() boundary wrong")
	}
}

func TestEncodeClassNames(t *testing.T) {
	want := map[EncodeClass]string{
		ClassRaw:        "raw",
		ClassStandalone: "standalone",
		ClassDiff1:      "diff-1ref",
		ClassDiff2:      "diff-2ref",
		ClassDiff3:      "diff-3ref",
		NumClasses:      "unknown",
	}
	for c, name := range want {
		if c.String() != name {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), name)
		}
	}
	if DiffClass(1) != ClassDiff1 || DiffClass(2) != ClassDiff2 || DiffClass(3) != ClassDiff3 {
		t.Fatal("DiffClass mapping wrong")
	}
}
