package experiments

import (
	"bytes"
	"math"
	"testing"

	"cable/internal/obs"
)

// runAndSnapshot resets the global registry AND the cell memo, runs the
// given experiments at the given parallelism, and returns the
// deterministic JSON dump. The memo must reset with the registry so
// both runs see the same hit/miss sequence (first request per distinct
// cell is the miss).
func runAndSnapshot(t *testing.T, ids []string, parallelism int) []byte {
	t.Helper()
	obs.Default().Reset()
	ResetCellMemo()
	if _, err := RunAll(ids, Options{Quick: true, Parallelism: parallelism}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.Default().WriteJSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMetricsDeterministicAcrossParallelism is the -metrics contract:
// the non-volatile registry dump for a fixed workload is byte-identical
// whether the cells ran serially or across a pool.
func TestMetricsDeterministicAcrossParallelism(t *testing.T) {
	ids := []string{"fig21", "tab3"}
	serial := runAndSnapshot(t, ids, 1)
	parallel := runAndSnapshot(t, ids, 4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("metrics dump differs between -parallel 1 and 4:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if !bytes.Contains(serial, []byte("core.fills")) {
		t.Fatalf("dump missing hot-path counters:\n%s", serial)
	}
}

// TestBreakdownShape checks the coverage table's invariants: every
// benchmark row's class fractions sum to 1, the skip fraction is a
// fraction, and bits/line is positive and below a raw line.
func TestBreakdownShape(t *testing.T) {
	res, err := Breakdown(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Table
	classCols := []string{"raw", "standalone", "diff-1ref", "diff-2ref", "diff-3ref"}
	rows := tab.Rows()
	if len(rows) < 2 || rows[len(rows)-1] != "mean" {
		t.Fatalf("rows = %v", rows)
	}
	for _, row := range rows {
		var sum float64
		for _, c := range classCols {
			v := tab.Get(row, c)
			if math.IsNaN(v) || v < 0 || v > 1 {
				t.Fatalf("%s/%s = %v", row, c, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s class fractions sum to %v", row, sum)
		}
		if s := tab.Get(row, "skip"); s < 0 || s > 1 {
			t.Fatalf("%s skip = %v", row, s)
		}
		if bl := tab.Get(row, "bits/line"); bl <= 0 || bl > 64*8+8 {
			t.Fatalf("%s bits/line = %v", row, bl)
		}
	}
}

// TestBreakdownMemoized pins the path the coverage table takes: plain
// memoized memory-link cells. A second call computes nothing, bypasses
// nothing and renders the same table.
func TestBreakdownMemoized(t *testing.T) {
	obs.Default().Reset()
	ResetCellMemo()
	counter := func(name string) uint64 { return obs.Default().Snapshot(true).Counters[name] }
	first, err := Breakdown(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	misses := counter("experiments.cellmemo_misses")
	second, err := Breakdown(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.Table.String() != second.Table.String() {
		t.Fatal("memo-served breakdown table differs from the computed one")
	}
	if got := counter("experiments.cellmemo_misses"); misses == 0 || got != misses {
		t.Errorf("cellmemo_misses %d after the first call, %d after the second; want equal and non-zero", misses, got)
	}
	if got := counter("experiments.cellmemo_bypass"); got != 0 {
		t.Errorf("cellmemo_bypass = %d, want 0: a breakdown cell is a plain memoized cell", got)
	}
}
