package trace

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"cable/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	gen, err := workload.New("gcc", 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := workload.New("gcc", 0, 1<<20)

	var buf bytes.Buffer
	if err := Record(&buf, gen, 1000); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := r.Header()
	if h.Benchmark != "gcc" || h.AddrBase != 1<<20 || h.Records != 1000 {
		t.Fatalf("header = %+v", h)
	}
	for i := 0; i < 1000; i++ {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		want := ref.Next()
		if got != want {
			t.Fatalf("record %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE123"))); err == nil {
		t.Fatal("bad magic should error")
	}
	if _, err := NewReader(bytes.NewReader([]byte("CB"))); err == nil {
		t.Fatal("short header should error")
	}
}

func TestTruncatedRecord(t *testing.T) {
	gen, _ := workload.New("gcc", 0, 0)
	var buf bytes.Buffer
	if err := Record(&buf, gen, 2); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("first record should parse: %v", err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated record should be a hard error, got %v", err)
	}
}

func TestWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Benchmark: "x"})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := w.Write(workload.Access{}); err == nil {
		t.Fatal("write after close should error")
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'a'
	}
	if _, err := NewWriter(&buf, Header{Benchmark: string(long)}); err == nil {
		t.Fatal("overlong name should error")
	}
	w, _ := NewWriter(&buf, Header{Benchmark: "ok"})
	if err := w.Write(workload.Access{Gap: -1}); err == nil {
		t.Fatal("negative gap should error")
	}
}

// TestGapBounds pins the writer's gap range to the on-disk uint32
// field: every representable value round-trips (including 1<<31, which
// the historical check wrongly rejected alongside wrongly accepting
// nothing above it), and the first unrepresentable value is rejected.
// The records also carry the extreme addresses (^0 down) and both
// write flags, which must read back verbatim.
func TestGapBounds(t *testing.T) {
	accepted := []int{0, 1, 1<<31 - 1, 1 << 31, 1<<32 - 1}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Benchmark: "gcc", Records: uint64(len(accepted))})
	if err != nil {
		t.Fatal(err)
	}
	record := func(i int) workload.Access {
		return workload.Access{LineAddr: ^uint64(i), Gap: accepted[i], Write: i%2 == 1}
	}
	for i, g := range accepted {
		if err := w.Write(record(i)); err != nil {
			t.Fatalf("gap %d should be accepted: %v", g, err)
		}
	}
	for _, g := range []int{-1, 1 << 32, 1<<32 + 7} {
		if err := w.Write(workload.Access{LineAddr: 1, Gap: g}); err == nil {
			t.Fatalf("gap %d should be rejected", g)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range accepted {
		a, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if a != record(i) {
			t.Fatalf("record %d: %+v != %+v", i, a, record(i))
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestRecordSetsInstance pins the bugfix for recorded co-run copies:
// the header must carry the generator's instance so replays of co-run
// captures stay distinguishable.
func TestRecordSetsInstance(t *testing.T) {
	gen, err := workload.New("gcc", 3, 1<<32)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Record(&buf, gen, 10); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := r.Header()
	if h.Instance != 3 {
		t.Fatalf("instance = %d, want 3", h.Instance)
	}
	if h.Records != 10 {
		t.Fatalf("records = %d, want 10", h.Records)
	}
}

// TestRecordsBackpatch covers the v2 count reconciliation paths: a
// seekable sink gets the true count patched into the header, a
// non-seekable sink keeps an unknown (0) count silently, and a
// non-seekable sink with a wrong declared count fails Close.
func TestRecordsBackpatch(t *testing.T) {
	path := t.TempDir() + "/t.trace"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, Header{Benchmark: "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := w.Write(workload.Access{LineAddr: uint64(i), Gap: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Records != 7 {
		t.Fatalf("seekable sink: records = %d, want backpatched 7", tr.Header.Records)
	}

	var buf bytes.Buffer
	w, _ = NewWriter(&buf, Header{Benchmark: "gcc"})
	w.Write(workload.Access{Gap: 1})
	if err := w.Close(); err != nil {
		t.Fatalf("unknown declared count on a pipe should close clean: %v", err)
	}
	r, _ := NewReader(bytes.NewReader(buf.Bytes()))
	if r.Header().Records != 0 {
		t.Fatalf("pipe sink: records = %d, want unknown (0)", r.Header().Records)
	}

	buf.Reset()
	w, _ = NewWriter(&buf, Header{Benchmark: "gcc", Records: 5})
	w.Write(workload.Access{Gap: 1})
	if err := w.Close(); err == nil {
		t.Fatal("wrong declared count on a pipe should fail Close")
	}
}

// TestVersion1Rejected: a CBLT0001 (format v1) header fails NewReader
// with an error naming the version — v2 is the only format read.
func TestVersion1Rejected(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("CBLT0001\x03gcc" + strings.Repeat("\x00", 12))))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 header: err = %v, want one naming version 1", err)
	}
}

func TestCount(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{Benchmark: "x"})
	for i := 0; i < 5; i++ {
		w.Write(workload.Access{LineAddr: uint64(i), Gap: 1})
	}
	if w.Count() != 5 {
		t.Fatalf("count = %d", w.Count())
	}
}
