// Trace loading and replay sources. A loaded Trace is immutable and
// safe to share across concurrent simulations; each simulation wraps it
// in its own Source, which carries the read cursor and a content
// generator reconstructed from the header.
package trace

import (
	"errors"
	"fmt"
	"io"
	"os"

	"cable/internal/obs"
	"cable/internal/workload"
)

// ErrExhausted reports a replay source asked for more accesses than its
// trace holds.
var ErrExhausted = errors.New("trace: replay exhausted")

// Trace is a fully loaded capture: header plus every record.
type Trace struct {
	Header   Header
	Accesses []workload.Access
}

// presizeRecords caps how many records ReadAll reserves up front from
// the header's declared count (24 KiB): the count is read before any
// record is, so a short file declaring 2^62 records must not size an
// allocation. Longer traces grow by append.
const presizeRecords = 1 << 10

// ReadAll loads a complete trace from r, validating the declared record
// count when the header carries one.
func ReadAll(r io.Reader) (*Trace, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	h := tr.Header()
	var recs []workload.Access
	if h.Records > 0 {
		recs = make([]workload.Access, 0, min(h.Records, presizeRecords))
	}
	for {
		a, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, a)
	}
	return &Trace{Header: h, Accesses: recs}, nil
}

// Load reads a trace file from disk.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// Source replays a trace as a workload.Source: the access stream comes
// from the records, rebased from the capture's address base onto base;
// line contents come from a generator reconstructed from the header's
// benchmark and instance. Rebasing is sound because generated content
// is a pure function of the relative address.
type Source struct {
	t    *Trace
	base uint64
	pos  int
	gen  *workload.Generator
}

// Source builds a replay source over the trace, placing its address
// space at base and counting materialized lines in reg (nil means the
// process-default registry). It fails if the header names a benchmark
// this build does not know, since contents could not be reconstructed.
func (t *Trace) Source(base uint64, reg *obs.Registry) (*Source, error) {
	gen, err := workload.NewIn(t.Header.Benchmark, int(t.Header.Instance), base, reg)
	if err != nil {
		return nil, fmt.Errorf("trace: cannot reconstruct content: %w", err)
	}
	return &Source{t: t, base: base, gen: gen}, nil
}

// Header returns the metadata of the underlying trace.
func (s *Source) Header() Header { return s.t.Header }

// Len returns the total number of records in the underlying trace.
func (s *Source) Len() int { return len(s.t.Accesses) }

// Remaining returns how many records are left to replay.
func (s *Source) Remaining() int { return len(s.t.Accesses) - s.pos }

// Next returns the next recorded access, rebased, or ErrExhausted past
// the end of the capture.
func (s *Source) Next() (workload.Access, error) {
	if s.pos >= len(s.t.Accesses) {
		return workload.Access{}, fmt.Errorf("%w: %q has %d records",
			ErrExhausted, s.t.Header.Benchmark, len(s.t.Accesses))
	}
	a := s.t.Accesses[s.pos]
	s.pos++
	a.LineAddr = a.LineAddr - s.t.Header.AddrBase + s.base
	return a, nil
}

// LineData materializes line contents at the rebased address.
func (s *Source) LineData(lineAddr uint64) []byte { return s.gen.LineData(lineAddr) }
