package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cable/internal/obs"
	"cable/internal/sim"
	"cable/internal/topo"
)

// renderAll runs experiments from a clean slate (fresh registry and
// memo) and renders everything a report consumer sees: tables, notes,
// and the deterministic metrics dump.
func renderAll(t *testing.T, ids []string, opt Options) (string, []byte) {
	t.Helper()
	obs.Default().Reset()
	ResetCellMemo()
	results, err := RunAll(ids, opt)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, r := range results {
		fmt.Fprintf(&sb, "== %s ==\n%s\n", r.ID, r.Table.String())
		for _, n := range r.Notes {
			fmt.Fprintln(&sb, n)
		}
	}
	var buf bytes.Buffer
	if err := obs.Default().WriteJSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	return sb.String(), buf.Bytes()
}

// TestCellMemoBitIdentical is the memo's acceptance contract: report
// tables AND the deterministic `-metrics` dump are byte-identical with
// the cell cache enabled or disabled, serial or parallel. The five
// experiments cover all four cell descriptors (memory link, multichip,
// timing, topology); fig11/fig12 share every cell, so the enabled runs
// take real hits, not just cold misses.
func TestCellMemoBitIdentical(t *testing.T) {
	ids := []string{"fig11", "fig12", "fig13", "fig17", "mesh"}
	baseTables, baseMetrics := renderAll(t, ids, Options{Quick: true, Parallelism: 1, DisableCellMemo: true})

	// Memo-off parallel determinism is already covered by
	// TestMetricsDeterministicAcrossParallelism; the variants here pin
	// the memo-on runs against the memo-off baseline.
	variants := []Options{
		{Quick: true, Parallelism: 1},
		{Quick: true, Parallelism: 4},
	}
	for _, opt := range variants {
		name := fmt.Sprintf("parallel=%d memo=%v", opt.Parallelism, !opt.DisableCellMemo)
		tables, metrics := renderAll(t, ids, opt)
		if tables != baseTables {
			t.Errorf("%s: tables differ from serial memo-off run:\n--- got ---\n%s\n--- want ---\n%s", name, tables, baseTables)
		}
		if !bytes.Equal(metrics, baseMetrics) {
			t.Errorf("%s: deterministic metrics dump differs from serial memo-off run:\n--- got ---\n%s\n--- want ---\n%s", name, metrics, baseMetrics)
		}
	}
}

// TestCellMemoReuse pins the memo mechanics: a repeated cell computes
// once, requesters get equal-but-unaliased results, and the replayed
// metrics delta matches a direct run's contribution.
func TestCellMemoReuse(t *testing.T) {
	obs.Default().Reset()
	ResetCellMemo()
	cfg := sim.DefaultMemLinkConfig("gcc")
	cfg.AccessesPerProgram = 2000
	cfg.Chip.LLCBytes = 128 << 10
	cfg.Chip.L4Bytes = 512 << 10

	first, err := runMemLink(Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := obs.Default().Snapshot(false)

	second, err := runMemLink(Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if entries := memo.len(); entries != 1 {
		t.Fatalf("memo holds %d entries after two identical requests, want 1", entries)
	}
	if !reflect.DeepEqual(first.Total, second.Total) ||
		!reflect.DeepEqual(first.PerProgram, second.PerProgram) ||
		!reflect.DeepEqual(first.Toggles, second.Toggles) ||
		first.Home != second.Home {
		t.Fatal("hit returned a result different from the computing miss")
	}
	if first.Home.Fills == 0 {
		t.Fatal("slim copy dropped the home end's stats")
	}
	// Requesters must not share mutable state.
	second.Total["tamper"] = first.Total["cable"]
	if _, leaked := first.Total["tamper"]; leaked {
		t.Fatal("memo handed out aliased result maps")
	}

	// The hit merged the same delta again: every simulation counter
	// doubles exactly.
	afterSecond := obs.Default().Snapshot(false)
	for name, v := range afterFirst.Counters {
		if got := afterSecond.Counters[name]; got != 2*v {
			t.Errorf("counter %s = %d after hit, want %d (2× first run)", name, got, 2*v)
		}
	}

	// The memo's own counters are volatile: read through Snapshot(true)
	// (the CLIs' closing stderr line), absent from the deterministic
	// dump a -nomemo run must reproduce.
	vol := obs.Default().Snapshot(true)
	if got := vol.Counters["experiments.cellmemo_hits"]; got != 1 {
		t.Errorf("volatile cellmemo_hits = %d, want 1", got)
	}
	if got := vol.Counters["experiments.cellmemo_misses"]; got != 1 {
		t.Errorf("volatile cellmemo_misses = %d, want 1", got)
	}
	if _, leaked := afterSecond.Counters["experiments.cellmemo_hits"]; leaked {
		t.Error("cellmemo counters must not appear in the deterministic dump")
	}

	// Disabling the memo must bypass, not consult, the cache — and hand
	// back the same slim copy: no driver reads the chip, so the bypassed
	// run releases it like a memoized one.
	third, err := runMemLink(Options{DisableCellMemo: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if third.Chip != nil {
		t.Fatal("bypassed run handed back a live chip nothing releases")
	}
	if got := obs.Default().Snapshot(true).Counters["experiments.cellmemo_bypass"]; got != 1 {
		t.Errorf("volatile cellmemo_bypass = %d, want 1", got)
	}
	if entries := memo.len(); entries != 1 {
		t.Fatalf("bypassed run touched the memo: %d entries, want 1", entries)
	}
	if !reflect.DeepEqual(first.Total, third.Total) {
		t.Fatal("memoized and direct runs disagree")
	}
}

// TestVolatileMetricsAreTheMemoCounters pins what "volatile" means.
// Telemetry is read from the post-run dumps, which leave volatile
// metrics out, so a volatile metric needs a reader of its own: the cell
// memo's four counters have one (the CLIs' stderr line, the benchmark
// harness). After memo-on runs (the second is served from the memo, so
// every outcome is counted) and a memo-off run across every cell
// descriptor, any other name that Snapshot(true) holds and
// Snapshot(false) does not — a wall-clock histogram, a queue-depth
// gauge — is write-only and fails here.
func TestVolatileMetricsAreTheMemoCounters(t *testing.T) {
	ResetCellMemo()
	ids := []string{"fig12", "fig13", "mesh"}
	for _, nomemo := range []bool{false, false, true} {
		if _, err := RunAll(ids, Options{Quick: true, DisableCellMemo: nomemo}); err != nil {
			t.Fatal(err)
		}
	}
	all, det := obs.Default().Snapshot(true), obs.Default().Snapshot(false)
	var volatile []string
	for name := range all.Counters {
		if _, ok := det.Counters[name]; !ok {
			volatile = append(volatile, name)
		}
	}
	for name := range all.Histograms {
		if _, ok := det.Histograms[name]; !ok {
			volatile = append(volatile, name)
		}
	}
	sort.Strings(volatile)
	want := []string{
		"experiments.cellmemo_bypass", "experiments.cellmemo_hits",
		"experiments.cellmemo_misses", "experiments.cellmemo_saved_bytes",
	}
	if !reflect.DeepEqual(volatile, want) {
		t.Errorf("volatile metrics = %v, want exactly %v", volatile, want)
	}
	if len(all.Gauges) != 0 {
		t.Errorf("snapshot holds gauges %v; the member is format-only and always empty", all.Gauges)
	}
}

// singleFlight hammers runCell with 8 concurrent requests for one cell
// and checks the front end's contract for the descriptor: a memoized
// cell runs exactly once (1 miss, 7 hits), a never-memoized one runs
// every time (8 bypasses); requesters get equal results that share no
// memory; and the deterministic counters read 8× one request's.
func singleFlight[C, R any](t *testing.T, k cellKind[C, R], cfg C) {
	const requests = 8
	var runs atomic.Int32
	inner := k.run
	k.run = func(c C, reg *obs.Registry, rec *obs.Recorder) (R, error) {
		runs.Add(1)
		return inner(c, reg, rec)
	}

	obs.Default().Reset()
	ResetCellMemo()
	if _, err := runCell(Options{}, &k, cfg); err != nil {
		t.Fatal(err)
	}
	one := obs.Default().Snapshot(false)

	obs.Default().Reset()
	ResetCellMemo()
	runs.Store(0)
	results := make([]R, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runCell(Options{}, &k, cfg)
		}(i)
	}
	wg.Wait()

	wantRuns, wantMiss, wantHit, wantBypass := 1, 1, requests-1, 0
	if k.digest == nil {
		wantRuns, wantMiss, wantHit, wantBypass = requests, 0, 0, requests
	}
	if got := int(runs.Load()); got != wantRuns {
		t.Errorf("%d simulations ran for %d requests, want %d", got, requests, wantRuns)
	}
	vol := obs.Default().Snapshot(true).Counters
	for name, want := range map[string]int{
		"experiments.cellmemo_misses": wantMiss,
		"experiments.cellmemo_hits":   wantHit,
		"experiments.cellmemo_bypass": wantBypass,
	} {
		if got := vol[name]; got != uint64(want) {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("request %d got a result different from request 0", i)
		}
		if i > 0 && reflect.ValueOf(results[i]).Pointer() == reflect.ValueOf(results[0]).Pointer() {
			t.Errorf("requests 0 and %d share one result", i)
		}
	}
	all := obs.Default().Snapshot(false)
	if len(one.Counters) == 0 {
		t.Fatal("reference request counted nothing")
	}
	for name, v := range one.Counters {
		if got := all.Counters[name]; got != requests*v {
			t.Errorf("counter %s = %d after %d requests, want %d (%d× one request)", name, got, requests, requests*v, requests)
		}
	}
}

// TestRunCellSingleFlight runs the single-flight contract once per
// descriptor, so every simulator is seen going through the one front
// end (under -race in ci/check.sh).
func TestRunCellSingleFlight(t *testing.T) {
	t.Run("memlink", func(t *testing.T) {
		cfg := sim.DefaultMemLinkConfig("gcc")
		cfg.AccessesPerProgram = 2000
		cfg.Chip.LLCBytes = 128 << 10
		cfg.Chip.L4Bytes = 512 << 10
		singleFlight(t, memLinkCell, cfg)
	})
	t.Run("timing", func(t *testing.T) {
		cfg := sim.DefaultTimingConfig("cable", "gcc")
		cfg.Threads = 1
		cfg.TotalTh = 16
		cfg.InstrPerTh = 40_000
		cfg.LLCPerThread = 64 << 10
		singleFlight(t, timingCell, cfg)
	})
	t.Run("multichip", func(t *testing.T) {
		cfg := sim.DefaultMultiChipConfig("gcc")
		cfg.Accesses = 2000
		cfg.LLCBytes = 128 << 10
		singleFlight(t, multiChipCell, cfg)
	})
	t.Run("topo", func(t *testing.T) {
		cfg := topo.DefaultConfig("gcc")
		cfg.Chips = 4
		cfg.Transfers = 2000
		cfg.HomeBytes = 256 << 10
		cfg.RemoteBytes = 64 << 10
		singleFlight(t, topoCell, cfg)
	})
}
