// Package trace records and replays memory-access streams. The paper
// evaluates on SimPoint traces; this package gives the synthetic
// workloads the same workflow — capture a stream once, replay it
// deterministically across schemes and configurations — and defines the
// compact binary format the cabletrace tool reads and writes.
//
// Format v2 ("CBLT0002") headers carry the record count so readers can
// pre-size buffers and detect truncation even when the file is cut at a
// record boundary. It is the only format written or read: a v1
// ("CBLT0001") header is rejected with an error naming the version.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"cable/internal/workload"
)

// magicV2 identifies the trace file format; the last four bytes are
// the version.
const magicV2 = "CBLT0002"

// ErrTruncated reports a trace whose body ends before the record count
// declared in its header.
var ErrTruncated = errors.New("trace: truncated")

// Header describes a recorded trace.
type Header struct {
	Benchmark string
	Instance  uint32
	AddrBase  uint64
	// Records is the number of records the trace declares. 0 means
	// unknown (a streaming writer that could not backpatch); readers
	// skip truncation validation when unknown.
	Records uint64
}

// recordSize is the fixed on-disk record width: 8B line address,
// 4B gap, 1B flags.
const recordSize = 13

// recordsOffset returns the byte offset of the Records field for a
// given benchmark name, so Close can backpatch the true count.
func recordsOffset(benchmark string) int64 {
	return int64(len(magicV2) + 1 + len(benchmark) + 4 + 8)
}

// Writer streams access records to w.
type Writer struct {
	bw     *bufio.Writer
	seeker io.WriteSeeker // non-nil when the sink supports backpatching
	header Header
	count  uint64
	closed bool
}

// NewWriter writes a v2 trace header for the given source and returns a
// Writer for its records. h.Records may declare the count upfront; if
// the count written before Close differs, Close backpatches it when w
// seeks (e.g. *os.File) and errors otherwise — unless the declared
// count was 0 (unknown), which any sink accepts.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magicV2); err != nil {
		return nil, err
	}
	name := []byte(h.Benchmark)
	if len(name) > 255 {
		return nil, fmt.Errorf("trace: benchmark name %q too long", h.Benchmark)
	}
	if err := bw.WriteByte(byte(len(name))); err != nil {
		return nil, err
	}
	if _, err := bw.Write(name); err != nil {
		return nil, err
	}
	var fixed [20]byte
	binary.LittleEndian.PutUint32(fixed[0:], h.Instance)
	binary.LittleEndian.PutUint64(fixed[4:], h.AddrBase)
	binary.LittleEndian.PutUint64(fixed[12:], h.Records)
	if _, err := bw.Write(fixed[:]); err != nil {
		return nil, err
	}
	ws, _ := w.(io.WriteSeeker)
	return &Writer{bw: bw, seeker: ws, header: h}, nil
}

// Write appends one access record: line address delta-encoded against
// the base is not attempted — records are fixed 13-byte entries
// (8B address, 4B gap, 1B flags) for simplicity and O(1) seeking.
func (w *Writer) Write(a workload.Access) error {
	if w.closed {
		return fmt.Errorf("trace: write after Close")
	}
	// The on-disk gap field is a uint32: accept its full range and
	// nothing else.
	if a.Gap < 0 || uint64(a.Gap) > math.MaxUint32 {
		return fmt.Errorf("trace: gap %d out of uint32 range", a.Gap)
	}
	var rec [recordSize]byte
	binary.LittleEndian.PutUint64(rec[0:], a.LineAddr)
	binary.LittleEndian.PutUint32(rec[8:], uint32(a.Gap))
	if a.Write {
		rec[12] = 1
	}
	if _, err := w.bw.Write(rec[:]); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Close flushes the stream and reconciles the header's record count
// with the records actually written.
func (w *Writer) Close() error {
	w.closed = true
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if w.count == w.header.Records {
		return nil
	}
	if w.seeker == nil {
		if w.header.Records == 0 {
			return nil // count stays unknown; readers skip validation
		}
		return fmt.Errorf("trace: wrote %d records but header declares %d and sink cannot seek",
			w.count, w.header.Records)
	}
	if _, err := w.seeker.Seek(recordsOffset(w.header.Benchmark), io.SeekStart); err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], w.count)
	if _, err := w.seeker.Write(buf[:]); err != nil {
		return err
	}
	_, err := w.seeker.Seek(0, io.SeekEnd)
	return err
}

// Reader replays a recorded trace.
type Reader struct {
	br     *bufio.Reader
	header Header
	read   uint64
}

// NewReader parses the header and prepares record iteration.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	got := make([]byte, len(magicV2))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(got) != magicV2 {
		if v, err := strconv.Atoi(string(got[4:])); err == nil && string(got[:4]) == magicV2[:4] {
			return nil, fmt.Errorf("trace: %q is format version %d; only version 2 is read", got, v)
		}
		return nil, fmt.Errorf("trace: bad magic %q", got)
	}
	nameLen, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	h := Header{Benchmark: string(name)}
	var fixed [12]byte
	if _, err := io.ReadFull(br, fixed[:]); err != nil {
		return nil, err
	}
	h.Instance = binary.LittleEndian.Uint32(fixed[0:])
	h.AddrBase = binary.LittleEndian.Uint64(fixed[4:])
	var cnt [8]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, err
	}
	h.Records = binary.LittleEndian.Uint64(cnt[:])
	return &Reader{br: br, header: h}, nil
}

// Header returns the trace metadata.
func (r *Reader) Header() Header { return r.header }

// Next returns the next record, or io.EOF at end of trace. When the
// header declares a record count, a stream ending early — even at a
// clean record boundary — returns an error wrapping ErrTruncated.
func (r *Reader) Next() (workload.Access, error) {
	if r.header.Records > 0 && r.read == r.header.Records {
		return workload.Access{}, io.EOF
	}
	var rec [recordSize]byte
	if _, err := io.ReadFull(r.br, rec[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return workload.Access{}, fmt.Errorf("trace: truncated record: %w", err)
		}
		if err == io.EOF && r.header.Records > 0 {
			return workload.Access{}, fmt.Errorf("%w: got %d of %d declared records",
				ErrTruncated, r.read, r.header.Records)
		}
		return workload.Access{}, err
	}
	gap := binary.LittleEndian.Uint32(rec[8:])
	if uint64(gap) > uint64(math.MaxInt) {
		// Unreachable on 64-bit platforms; guards 32-bit int overflow.
		return workload.Access{}, fmt.Errorf("trace: gap %d overflows int on this platform", gap)
	}
	r.read++
	return workload.Access{
		LineAddr: binary.LittleEndian.Uint64(rec[0:]),
		Gap:      int(gap),
		Write:    rec[12] != 0,
	}, nil
}

// Record captures n accesses from a generator into w. The header
// carries the generator's benchmark, co-run instance, address base,
// and the record count.
func Record(w io.Writer, gen *workload.Generator, n int) error {
	tw, err := NewWriter(w, Header{
		Benchmark: gen.Spec().Name,
		Instance:  uint32(gen.Instance()),
		AddrBase:  gen.AddrBase(),
		Records:   uint64(n),
	})
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := tw.Write(gen.Next()); err != nil {
			return err
		}
	}
	return tw.Close()
}
