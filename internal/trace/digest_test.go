package trace_test

import (
	"bytes"
	"testing"

	"cable/internal/sim"
	"cable/internal/trace"
	"cable/internal/workload"
)

// TestTraceDigestDistinct pins how a capture reaches the cell memo's
// digest: loading the same bytes twice gives the same digest, and any
// change — one record, or only a header field — gives a different one
// (distinct captures never alias memo cells).
func TestTraceDigestDistinct(t *testing.T) {
	mk := func(instance uint32, gap int) *trace.Trace {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, trace.Header{Benchmark: "gcc", Instance: instance, Records: 2})
		if err != nil {
			t.Fatal(err)
		}
		w.Write(workload.Access{LineAddr: 1, Gap: 1})
		w.Write(workload.Access{LineAddr: 2, Gap: gap})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		tr, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := sim.DigestOf(mk(0, 7))
	if a != sim.DigestOf(mk(0, 7)) {
		t.Fatal("identical captures must share a digest")
	}
	if a == sim.DigestOf(mk(0, 8)) {
		t.Fatal("a record change must change the digest")
	}
	if a == sim.DigestOf(mk(1, 7)) {
		t.Fatal("a header change must change the digest")
	}
}
