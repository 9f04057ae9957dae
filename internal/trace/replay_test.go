package trace

import (
	"bytes"
	"errors"
	"testing"

	"cable/internal/obs"
	"cable/internal/workload"
)

// TestReadAllAndSourceRebase records a co-run copy at one address base
// and replays it at another: the replayed stream must equal the live
// generator's stream shifted by the base delta, and contents at the
// new base must match a live generator placed there (content is a pure
// function of the relative address).
func TestReadAllAndSourceRebase(t *testing.T) {
	const n = 500
	gen, err := workload.New("gcc", 2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Record(&buf, gen, n); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Accesses) != n || tr.Header.Records != n {
		t.Fatalf("loaded %d accesses, header %d, want %d", len(tr.Accesses), tr.Header.Records, n)
	}

	const newBase = 5 << 32
	src, err := tr.Source(newBase, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := workload.NewIn("gcc", 2, newBase, obs.NewRegistry())
	for i := 0; i < n; i++ {
		got, err := src.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		want := ref.Next()
		if got != want {
			t.Fatalf("record %d: %+v != %+v", i, got, want)
		}
		line := src.LineData(got.LineAddr)
		if !bytes.Equal(line, ref.LineData(want.LineAddr)) {
			t.Fatalf("record %d: content mismatch at %#x", i, got.LineAddr)
		}
	}
	if _, err := src.Next(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted past the capture, got %v", err)
	}
}

// TestSourceUnknownBenchmark: replay needs the content model, so a
// header naming an unknown benchmark must fail Source construction.
func TestSourceUnknownBenchmark(t *testing.T) {
	tr := &Trace{Header: Header{Benchmark: "no-such-benchmark"}}
	if _, err := tr.Source(0, obs.NewRegistry()); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}
