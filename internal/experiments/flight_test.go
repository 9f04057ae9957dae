package experiments

import (
	"bytes"
	"testing"

	"cable/internal/fault"
	"cable/internal/obs"
)

// flightDumps resets the shared registry + memo, runs the experiments
// with a fresh Flight at the given parallelism/memo setting, and
// returns the deterministic windows and timeline dumps.
func flightDumps(t *testing.T, ids []string, opt Options) (windows, timeline []byte) {
	t.Helper()
	obs.Default().Reset()
	ResetCellMemo()
	f := obs.NewFlight(obs.FlightConfig{Window: 512})
	opt.Flight = f
	if _, err := RunAll(ids, opt); err != nil {
		t.Fatal(err)
	}
	var w, tl bytes.Buffer
	if err := f.WriteWindowsJSON(&w); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteTimelineJSON(&tl); err != nil {
		t.Fatal(err)
	}
	if len(f.Keys()) == 0 {
		t.Fatal("no cells registered a recorder")
	}
	return w.Bytes(), tl.Bytes()
}

// TestFlightDeterministicAcrossParallelism is the -windows/-timeline
// contract: dumps are byte-identical whether cells ran serially with
// the memo on or across a pool with the memo off.
func TestFlightDeterministicAcrossParallelism(t *testing.T) {
	ids := []string{"fig12"}
	baseW, baseT := flightDumps(t, ids, Options{Quick: true, Parallelism: 1})
	for _, opt := range []Options{
		{Quick: true, Parallelism: 8},
		{Quick: true, Parallelism: 1, DisableCellMemo: true},
		{Quick: true, Parallelism: 8, DisableCellMemo: true},
	} {
		w, tl := flightDumps(t, ids, opt)
		if !bytes.Equal(baseW, w) {
			t.Fatalf("windows dump differs at parallel=%d nomemo=%v", opt.Parallelism, opt.DisableCellMemo)
		}
		if !bytes.Equal(baseT, tl) {
			t.Fatalf("timeline dump differs at parallel=%d nomemo=%v", opt.Parallelism, opt.DisableCellMemo)
		}
	}
	if !bytes.Contains(baseW, []byte(`"bits_per_line"`)) {
		t.Fatal("windows dump missing derived rates")
	}
	if !bytes.Contains(baseT, []byte(`"kind":"encode"`)) {
		t.Fatal("timeline dump missing encode events")
	}
}

// TestFlightDeterministicUnderFault: the same contract with the link
// fault injector on — degradation events land in the dumps and still
// byte-match across scheduling.
func TestFlightDeterministicUnderFault(t *testing.T) {
	ids := []string{"fig21"}
	fc := fault.Config{BitRate: 2e-4, Seed: 7}
	baseW, baseT := flightDumps(t, ids, Options{Quick: true, Parallelism: 1, Fault: fc})
	w, tl := flightDumps(t, ids, Options{Quick: true, Parallelism: 8, DisableCellMemo: true, Fault: fc})
	if !bytes.Equal(baseW, w) {
		t.Fatal("faulted windows dump differs between serial+memo and parallel+nomemo")
	}
	if !bytes.Equal(baseT, tl) {
		t.Fatal("faulted timeline dump differs between serial+memo and parallel+nomemo")
	}
	if !bytes.Contains(baseT, []byte(`"kind":"fault"`)) {
		t.Fatal("faulted timeline carries no fault events")
	}
}

// TestFlightKeysStable: distinct cells get distinct digest-derived
// keys, and a repeated run registers the same key set.
func TestFlightKeysStable(t *testing.T) {
	keys := func() []string {
		obs.Default().Reset()
		ResetCellMemo()
		f := obs.NewFlight(obs.FlightConfig{Window: 512})
		if _, err := RunAll([]string{"fig12"}, Options{Quick: true, Parallelism: 4, Flight: f}); err != nil {
			t.Fatal(err)
		}
		return f.Keys()
	}
	a, b := keys(), keys()
	if len(a) < 2 {
		t.Fatalf("fig12 should register multiple cells, got %v", a)
	}
	if len(a) != len(b) {
		t.Fatalf("key sets differ across runs: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("key %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}
