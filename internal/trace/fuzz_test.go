package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"cable/internal/workload"
)

// traceHeader builds a version-2 header declaring records accesses.
func traceHeader(name string, records uint64) []byte {
	b := append([]byte(magicV2), byte(len(name)))
	b = append(b, name...)
	b = append(b, make([]byte, 12)...) // instance, address base
	return binary.LittleEndian.AppendUint64(b, records)
}

// TestReadAllHugeDeclaredCount: the record count is read before any
// record, so a 32-byte file declaring 2^62 records (which used to size
// a slice from it and panic) and one declaring 2^34 are short traces,
// not allocations.
func TestReadAllHugeDeclaredCount(t *testing.T) {
	for _, records := range []uint64{1 << 62, 1 << 34} {
		data := traceHeader("gcc", records)
		if len(data) != 32 {
			t.Fatalf("header is %d bytes", len(data))
		}
		_, err := ReadAll(bytes.NewReader(data))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("%d records declared, none present: err = %v, want ErrTruncated", records, err)
		}
	}
}

// FuzzTraceReader: any bytes give ReadAll an error or a trace — never a
// panic — holding exactly the declared record count, and what it
// allocates is bounded by the input's length, whatever the header
// declares.
func FuzzTraceReader(f *testing.F) {
	gen, err := workload.New("gcc", 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := Record(&valid, gen, 5); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-4])
	f.Add(traceHeader("gcc", 1<<62))
	f.Add(append(traceHeader("gcc", 1<<34), valid.Bytes()[recordsOffset("gcc")+8:]...))
	f.Add(traceHeader("", 0))
	f.Add([]byte("CBLT0001"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := ReadAll(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// A 4 KiB read buffer, the 24 KiB presize, and at most ~8 B of
		// record slice (24 B an access, doubled, grown) per input byte.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(data)); got > bound {
			t.Fatalf("%d-byte input allocated %d B (bound %d)", len(data), got, bound)
		}
		if err != nil {
			return
		}
		if n := tr.Header.Records; n > 0 && uint64(len(tr.Accesses)) != n {
			t.Fatalf("header declares %d records, trace holds %d", n, len(tr.Accesses))
		}
	})
}
