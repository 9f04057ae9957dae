package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cable/internal/trace"
	"cable/internal/workload"
)

// TestRecordReplay drives the tool's record path and replays the file:
// the trace must reproduce the generator's access stream exactly.
func TestRecordReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mcf.trace")
	const n = 500
	if err := record("mcf", 0, n, path); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Header(); h.Benchmark != "mcf" {
		t.Fatalf("header = %+v", h)
	}
	ref, err := workload.New("mcf", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if want := ref.Next(); got != want {
			t.Fatalf("record %d: %+v != %+v", i, got, want)
		}
	}
}

func TestSummarizeSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gcc.trace")
	if err := record("gcc", 0, 200, path); err != nil {
		t.Fatal(err)
	}
	if err := summarize(path); err != nil {
		t.Fatal(err)
	}
	if err := summarize(filepath.Join(t.TempDir(), "missing.trace")); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestSummarizeTruncated cuts a capture short of the record count its
// header declares, once mid-record and once on a record boundary:
// -stats must fail, not summarize the records that survived.
func TestSummarizeTruncated(t *testing.T) {
	dir := t.TempDir()
	whole := filepath.Join(dir, "gcc.trace")
	if err := record("gcc", 0, 200, whole); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	const recordSize = 13 // internal/trace's fixed record width
	for name, keep := range map[string]int{
		"mid-record": len(b) - 100*recordSize - 5,
		"boundary":   len(b) - 100*recordSize,
	} {
		cut := filepath.Join(dir, name+".trace")
		if err := os.WriteFile(cut, b[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := summarize(cut); err == nil {
			t.Errorf("%s: a capture cut short of its 200 declared records summarized without error", name)
		} else if name == "boundary" && !errors.Is(err, trace.ErrTruncated) {
			t.Errorf("%s: %v, want trace.ErrTruncated", name, err)
		}
	}
}

func TestProfileSmoke(t *testing.T) {
	if err := profileBench("dealII", 300); err != nil {
		t.Fatal(err)
	}
	if err := profileBench("no-such-bench", 10); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}
