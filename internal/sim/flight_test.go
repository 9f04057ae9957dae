package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"cable/internal/fault"
	"cable/internal/obs"
)

// sumWindows folds every window of every track of a recorder dump.
func sumWindows(d obs.RecorderDump) (w obs.WindowDump) {
	for _, tr := range d.Tracks {
		for _, win := range tr.Windows {
			w.Transfers += win.Transfers
			w.SourceBits += win.SourceBits
			w.WireBits += win.WireBits
			w.Toggles += win.Toggles
			w.Encodes += win.Encodes
			w.Skips += win.Skips
			w.Decodes += win.Decodes
			w.Writebacks += win.Writebacks
			w.Faults += win.Faults
			w.DecodeErrors += win.DecodeErrors
			w.RawFallbacks += win.RawFallbacks
		}
	}
	return w
}

// TestFlightWindowsReconcile: the recorder's window deltas are a
// partition of the chip's own totals — summing them back recovers the
// cable accumulator and the link's toggle counter exactly.
func TestFlightWindowsReconcile(t *testing.T) {
	rec := obs.NewRecorder(obs.FlightConfig{Window: 512})
	cfg := DefaultMemLinkConfig("bzip2")
	cfg.AccessesPerProgram = 6000
	cfg.WithMeters = false
	cfg.Recorder = rec
	res, err := RunMemoryLink(cfg)
	if err != nil {
		t.Fatal(err)
	}

	got := sumWindows(rec.Dump())
	want := res.Total["cable"]
	if got.SourceBits != want.SourceBits || got.WireBits != want.WireBits {
		t.Fatalf("window sums source/wire = %d/%d, chip total = %d/%d",
			got.SourceBits, got.WireBits, want.SourceBits, want.WireBits)
	}
	if got.Toggles != res.Chip.CableLink.Toggles {
		t.Fatalf("window toggles = %d, link counter = %d", got.Toggles, res.Chip.CableLink.Toggles)
	}
	if got.Transfers == 0 || got.Encodes == 0 || got.Decodes == 0 {
		t.Fatalf("no activity recorded: %+v", got)
	}
	if rec.Now() == 0 {
		t.Fatal("virtual clock never ticked")
	}
	if rec.Now() < got.Transfers {
		t.Fatalf("now %d < transfers %d: ticks must dominate transfers", rec.Now(), got.Transfers)
	}
}

// TestFlightWindowsUnderFault: with the injector on, the recorder's
// fault/fallback deltas reconcile with the pair's degradation counters.
func TestFlightWindowsUnderFault(t *testing.T) {
	rec := obs.NewRecorder(obs.FlightConfig{Window: 512})
	cfg := DefaultMemLinkConfig("bzip2")
	cfg.AccessesPerProgram = 6000
	cfg.WithMeters = false
	cfg.Chip.Fault = fault.Config{BitRate: 1e-3, Seed: 7}
	cfg.Recorder = rec
	res, err := RunMemoryLink(cfg)
	if err != nil {
		t.Fatal(err)
	}

	got := sumWindows(rec.Dump())
	x := &res.Chip.pair.Xfer
	if x.FaultsInjected == 0 {
		t.Fatal("fault injector never fired; raise the rate or accesses")
	}
	if got.Faults != x.FaultsInjected {
		t.Fatalf("window faults = %d, pair = %d", got.Faults, x.FaultsInjected)
	}
	if got.DecodeErrors != x.DecodeErrors || got.RawFallbacks != x.RawFallbacks {
		t.Fatalf("window errors/fallbacks = %d/%d, pair = %d/%d",
			got.DecodeErrors, got.RawFallbacks, x.DecodeErrors, x.RawFallbacks)
	}
	// Raw-fallback resends ride the wire, so the recorder's wire total
	// must still equal the chip's accumulator (which includes them).
	if want := res.Total["cable"]; got.WireBits != want.WireBits {
		t.Fatalf("window wire bits = %d, chip total = %d", got.WireBits, want.WireBits)
	}
}

// TestFlightRerunIdentical: running the same cell twice into two fresh
// recorders yields byte-identical deterministic dumps (the contract the
// Flight's register-first policy relies on).
func TestFlightRerunIdentical(t *testing.T) {
	run := func() []byte {
		rec := obs.NewRecorder(obs.FlightConfig{Window: 256})
		cfg := DefaultMemLinkConfig("gcc")
		cfg.AccessesPerProgram = 4000
		cfg.WithMeters = false
		cfg.Recorder = rec
		if _, err := RunMemoryLink(cfg); err != nil {
			t.Fatal(err)
		}
		d := rec.Dump()
		if len(d.Tracks) == 0 || len(d.Events) == 0 {
			t.Fatal("nothing recorded")
		}
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatal("re-running an identical cell produced different recorder content")
	}
}
