package codec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"cable/internal/core"
)

// testPayload builds len-byte plaintext with cache-line-like structure:
// runs of word-aligned records whose fields drift slowly, so the CABLE
// pipeline finds signature matches, plus a noise span to exercise the
// raw-payload fallback.
func testPayload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, n)
	base := rng.Uint32()
	for len(out) < n {
		switch rng.Intn(4) {
		case 0: // pointer-ish words drifting from a base
			for i := 0; i < 16 && len(out) < n; i++ {
				v := base + uint32(rng.Intn(256))
				out = append(out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			}
		case 1: // zero run
			for i := 0; i < 32 && len(out) < n; i++ {
				out = append(out, 0)
			}
		case 2: // repeated record
			rec := make([]byte, 12)
			rng.Read(rec)
			for i := 0; i < 8 && len(out) < n; i++ {
				rec[0] = byte(i)
				out = append(out, rec...)
			}
		default: // noise
			b := make([]byte, 24)
			rng.Read(b)
			out = append(out, b...)
		}
	}
	return out[:n]
}

// encodeAll runs plaintext through a fresh encoder in chunks of
// writeChunk bytes and returns the wire image.
func encodeAll(t *testing.T, plaintext []byte, o Options, writeChunk int) []byte {
	t.Helper()
	var wire bytes.Buffer
	e, err := NewEncoder(&wire, o)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	for off := 0; off < len(plaintext); off += writeChunk {
		end := off + writeChunk
		if end > len(plaintext) {
			end = len(plaintext)
		}
		if _, err := e.Write(plaintext[off:end]); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return wire.Bytes()
}

func decodeAll(t *testing.T, wire []byte, readChunk int) []byte {
	t.Helper()
	d := NewDecoder(bytes.NewReader(wire))
	var out bytes.Buffer
	buf := make([]byte, readChunk)
	for {
		n, err := d.Read(buf)
		out.Write(buf[:n])
		if err == io.EOF {
			return out.Bytes()
		}
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	plaintext := testPayload(64<<10, 1)
	for _, batch := range []int{1, 5, 32} {
		for _, extra := range []int{0, 1, 63} { // tail lengths
			t.Run(fmt.Sprintf("batch=%d/tail=%d", batch, extra), func(t *testing.T) {
				in := plaintext[:len(plaintext)-64+extra]
				wire := encodeAll(t, in, Options{Batch: batch}, 1000)
				got := decodeAll(t, wire, 777)
				if !bytes.Equal(got, in) {
					t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(in))
				}
			})
		}
	}
}

func TestRoundTripEngines(t *testing.T) {
	in := testPayload(32<<10, 3)
	for _, eng := range []string{"lbe", "bdi", "fpc"} {
		t.Run(eng, func(t *testing.T) {
			wire := encodeAll(t, in, Options{Engine: eng}, 4096)
			if got := decodeAll(t, wire, 4096); !bytes.Equal(got, in) {
				t.Fatal("round trip mismatch")
			}
		})
	}
}

func TestRoundTripLineSizes(t *testing.T) {
	in := testPayload(32<<10, 4)
	for _, ls := range []int{16, 32, 128} {
		t.Run(fmt.Sprintf("line=%d", ls), func(t *testing.T) {
			wire := encodeAll(t, in, Options{LineSize: ls, DictBytes: 64 << 10}, 4096)
			if got := decodeAll(t, wire, 4096); !bytes.Equal(got, in) {
				t.Fatal("round trip mismatch")
			}
		})
	}
}

// TestRawPassthrough feeds incompressible noise and checks the encoder
// falls back to raw frames — and that later compressible frames can
// still reference lines installed by raw ones.
func TestRawPassthrough(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	noise := make([]byte, 32<<10)
	rng.Read(noise)
	in := append(append([]byte(nil), noise...), testPayload(32<<10, 6)...)

	var wire bytes.Buffer
	e, err := NewEncoder(&wire, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Write(in); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Stats.RawFrames == 0 {
		t.Fatal("no raw frames for pure noise input")
	}
	if e.Stats.CableFrames == 0 {
		t.Fatal("no cable frames for structured input")
	}
	if got := decodeAll(t, wire.Bytes(), 4096); !bytes.Equal(got, in) {
		t.Fatal("round trip mismatch")
	}
	if uint64(wire.Len()) != e.Stats.OutBytes {
		t.Fatalf("OutBytes %d, wire %d", e.Stats.OutBytes, wire.Len())
	}
}

// TestEncoderReset checks a Reset encoder emits a byte-identical stream
// to a fresh one, even after encoding unrelated content first.
func TestEncoderReset(t *testing.T) {
	a := testPayload(48<<10, 7)
	b := testPayload(48<<10, 8)

	fresh := encodeAll(t, b, Options{}, 4096)

	var w1, w2 bytes.Buffer
	e, err := NewEncoder(&w1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Write(a); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e.Reset(&w2)
	if _, err := e.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w2.Bytes(), fresh) {
		t.Fatal("reset encoder wire image differs from fresh encoder")
	}

	// Decoder reset across the two streams (matching geometry path).
	d := NewDecoder(bytes.NewReader(w1.Bytes()))
	got, err := io.ReadAll(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) {
		t.Fatal("stream 1 mismatch")
	}
	d.Reset(bytes.NewReader(w2.Bytes()))
	if got, err = io.ReadAll(d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Fatal("stream 2 mismatch after decoder reset")
	}
}

// TestDeterminism: two independent encoders over the same stream must
// produce byte-identical wire images regardless of write chunking.
func TestDeterminism(t *testing.T) {
	in := testPayload(64<<10, 9)
	w1 := encodeAll(t, in, Options{}, 4096)
	w2 := encodeAll(t, in, Options{}, 123)
	if !bytes.Equal(w1, w2) {
		t.Fatal("wire image depends on write chunking")
	}
}

func TestFlushMidStream(t *testing.T) {
	in := testPayload(10_000, 10)
	var wire bytes.Buffer
	e, err := NewEncoder(&wire, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Write(in[:5000]); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	mark := wire.Len()
	if mark == 0 {
		t.Fatal("flush emitted nothing")
	}
	if _, err := e.Write(in[5000:]); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := decodeAll(t, wire.Bytes(), 512); !bytes.Equal(got, in) {
		t.Fatal("round trip mismatch across flush")
	}
}

// typedDecodeError reports whether err belongs to the documented error
// taxonomy for corrupted streams.
func typedDecodeError(err error) bool {
	return errors.Is(err, ErrBadFrame) ||
		errors.Is(err, core.ErrTruncatedPayload) ||
		errors.Is(err, core.ErrCRCMismatch) ||
		errors.Is(err, core.ErrCorruptDiff) ||
		errors.Is(err, core.ErrBadReference)
}

// drainDecoder decodes wire to EOF or the first error and returns what
// came out with that error (nil at EOF). An error outside the
// documented taxonomy fails the test.
func drainDecoder(t *testing.T, wire []byte) ([]byte, error) {
	t.Helper()
	out, err := io.ReadAll(NewDecoder(bytes.NewReader(wire)))
	if err != nil && !typedDecodeError(err) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("untyped decode error: %v", err)
	}
	return out, err
}

// census classifies the decodes of damaged copies of one stream:
// detected (an error), benign (no error, output == input) or silent
// (no error, output != input — the class the format must not have).
type census struct{ detected, benign, silent int }

func (c *census) add(got []byte, err error, want []byte) {
	switch {
	case err != nil:
		c.detected++
	case bytes.Equal(got, want):
		c.benign++
	default:
		c.silent++
	}
}

// TestCorruptionExhaustive flips every bit and truncates at every byte
// of two real streams and demands, of each damaged copy, an error or
// the original output. Wire v1 cannot meet that everywhere, so its
// holes are counted and pinned, and may only shrink: a flipped bit in a
// CABLE frame is always caught (the benign flips are padding bits), but
// raw and tail bodies carry no check, and with no end-of-stream marker
// a cut at a frame boundary is a clean EOF with short output.
func TestCorruptionExhaustive(t *testing.T) {
	noise := make([]byte, 4<<10+10) // 8 raw frames and a tail
	rand.New(rand.NewSource(15)).Read(noise)
	for _, tc := range []struct {
		name                    string
		in                      []byte
		silentFlips, silentCuts int
	}{
		{"cable", testPayload(4<<10, 11), 0, 9},
		{"raw+tail", noise, 32848, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := encodeAll(t, tc.in, Options{Batch: 8, DictBytes: 64 << 10}, 4096)
			var flips, cuts census
			mut := append([]byte(nil), wire...)
			for pos := range mut {
				for bit := 0; bit < 8; bit++ {
					mut[pos] ^= 1 << bit
					got, err := drainDecoder(t, mut)
					flips.add(got, err, tc.in)
					mut[pos] ^= 1 << bit
				}
			}
			for cut := 0; cut < len(wire); cut++ {
				got, err := drainDecoder(t, wire[:cut])
				cuts.add(got, err, tc.in)
			}
			t.Logf("%d B wire: %d bit flips -> %d detected, %d benign, %d silent; %d truncations -> %d detected, %d benign, %d silent",
				len(wire), 8*len(wire), flips.detected, flips.benign, flips.silent,
				len(wire), cuts.detected, cuts.benign, cuts.silent)
			if flips.silent > tc.silentFlips {
				t.Errorf("%d bit flips decoded to different output without an error, want <= %d", flips.silent, tc.silentFlips)
			}
			if cuts.silent > tc.silentCuts {
				t.Errorf("%d truncations decoded to short output without an error, want <= %d", cuts.silent, tc.silentCuts)
			}
		})
	}
}

// TestDecoderAwkwardReaders pins the decoder against readers that are
// legal but unhelpful: short reads, and data delivered together with
// the final EOF.
func TestDecoderAwkwardReaders(t *testing.T) {
	in := testPayload(8<<10+21, 16)
	wire := encodeAll(t, in, Options{Batch: 8, DictBytes: 64 << 10}, 4096)
	for _, tc := range []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"OneByteReader", iotest.OneByteReader},
		{"HalfReader", iotest.HalfReader},
		{"DataErrReader", iotest.DataErrReader},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := io.ReadAll(NewDecoder(tc.wrap(bytes.NewReader(wire))))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, in) {
				t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(in))
			}
		})
	}
}

// TestDecoderTransportErrors: a reader failure that is not an end of
// stream is the transport's, wherever it lands — before the first byte
// it is not a clean empty stream, and inside an object it is not
// payload truncation. It comes back wrapped, and sticky.
func TestDecoderTransportErrors(t *testing.T) {
	wire := encodeAll(t, testPayload(4<<10, 17), Options{}, 4096)
	boom := errors.New("connection reset")
	for _, tc := range []struct {
		name  string
		r     io.Reader
		cause error
	}{
		{"before byte 0", iotest.ErrReader(boom), boom},
		{"mid-body", io.MultiReader(bytes.NewReader(wire[:100]), iotest.ErrReader(boom)), boom},
		{"timeout", iotest.TimeoutReader(bytes.NewReader(wire)), iotest.ErrTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDecoder(tc.r)
			_, err := io.ReadAll(d)
			if !errors.Is(err, tc.cause) {
				t.Fatalf("got %v, want an error wrapping %v", err, tc.cause)
			}
			if errors.Is(err, core.ErrTruncatedPayload) {
				t.Fatalf("transport error classified as payload truncation: %v", err)
			}
			if _, again := d.Read(make([]byte, 1)); again != err {
				t.Fatalf("error not sticky: then %v", again)
			}
		})
	}
}

// failingSink accepts its first k-1 Writes and fails every later one.
type failingSink struct {
	k, calls int
	err      error
}

func (w *failingSink) Write(p []byte) (int, error) {
	if w.calls++; w.calls >= w.k {
		return 0, w.err
	}
	return len(p), nil
}

// TestEncoderSinkErrors fails the sink on its k-th Write, for every k a
// multi-frame stream with a mid-stream Flush makes: the call that
// caused the Write returns the sink's error, every later call repeats
// it, and Reset onto a good sink then yields the wire image of a fresh
// encoder — nothing of the failed stream survives in a pooled instance.
func TestEncoderSinkErrors(t *testing.T) {
	in := testPayload(3000, 18)
	o := Options{Batch: 4, DictBytes: 64 << 10}
	// drive makes the fixed call sequence Write, Flush, Write, Close and
	// returns each call's error.
	drive := func(e *Encoder) (errs [4]error) {
		for i, p := range [][]byte{in[:1500], nil, in[1500:]} {
			if p == nil {
				errs[i] = e.Flush()
				continue
			}
			var n int
			n, errs[i] = e.Write(p)
			if n < 0 || n > len(p) || (errs[i] == nil && n != len(p)) {
				t.Fatalf("Write(%d bytes) = %d, %v", len(p), n, errs[i])
			}
		}
		errs[3] = e.Close()
		return errs
	}

	var fresh bytes.Buffer
	e, err := NewEncoder(&fresh, o)
	if err != nil {
		t.Fatal(err)
	}
	if errs := drive(e); errs != [4]error{} {
		t.Fatalf("good sink: %v", errs)
	}
	sinkWrites := int(1 + e.Stats.CableFrames + e.Stats.RawFrames + 1) // header, frames, tail
	if sinkWrites < 10 {
		t.Fatalf("stream makes only %d sink writes", sinkWrites)
	}

	boom := errors.New("sink full")
	for k := 1; k <= sinkWrites; k++ {
		sink := &failingSink{k: k, err: boom}
		e.Reset(sink)
		failed := false
		for i, err := range drive(e) {
			if failed && err == nil {
				t.Fatalf("k=%d: call %d succeeded after the sink failed", k, i)
			}
			if err != nil && !errors.Is(err, boom) {
				t.Fatalf("k=%d: call %d: got %v, want the sink's error", k, i, err)
			}
			failed = failed || err != nil
		}
		if !failed {
			t.Fatalf("k=%d: no call reported the sink's error", k)
		}
		if sink.calls != k {
			t.Fatalf("k=%d: sink written %d times: the encoder kept writing after the error", k, sink.calls)
		}
		var again bytes.Buffer
		e.Reset(&again)
		if errs := drive(e); errs != [4]error{} {
			t.Fatalf("k=%d: after Reset: %v", k, errs)
		}
		if !bytes.Equal(again.Bytes(), fresh.Bytes()) {
			t.Fatalf("k=%d: wire image after a failed stream and Reset differs from a fresh encoder's", k)
		}
	}
}

func TestEmptyStream(t *testing.T) {
	wire := encodeAll(t, nil, Options{}, 1)
	if got := decodeAll(t, wire, 16); len(got) != 0 {
		t.Fatalf("decoded %d bytes from empty stream", len(got))
	}
	// A zero-byte wire is a clean EOF, not an error.
	d := NewDecoder(bytes.NewReader(nil))
	if _, err := d.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("empty wire: got %v, want io.EOF", err)
	}
}

func TestSubLineStream(t *testing.T) {
	in := []byte("shorter than one line")
	wire := encodeAll(t, in, Options{}, 4)
	if got := decodeAll(t, wire, 4); !bytes.Equal(got, in) {
		t.Fatal("sub-line round trip mismatch")
	}
}

func TestOptionsValidate(t *testing.T) {
	for _, o := range []Options{
		{LineSize: 13},
		{LineSize: 8192},
		{Engine: "no-such-engine-name-that-is-far-too-long!"},
		{DictBytes: 1 << 30, LineSize: 16, DictWays: 1},
	} {
		if _, err := NewEncoder(io.Discard, o); err == nil {
			t.Fatalf("options %+v accepted", o)
		}
	}
	if _, err := NewEncoder(io.Discard, Options{Engine: "nope"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// countWriter counts bytes without retaining them.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestCodecEncodeAllocs pins the steady-state encode path at zero
// allocations per Write once the encoder is warm.
func TestCodecEncodeAllocs(t *testing.T) {
	in := testPayload(1<<20, 12)
	e, err := NewEncoder(&countWriter{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: grow every scratch buffer to steady-state size.
	if _, err := e.Write(in); err != nil {
		t.Fatal(err)
	}
	chunk := in[:64<<10]
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.Write(chunk); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Write allocates %.1f times per call, want 0", allocs)
	}
}

// TestCodecDecodeAllocsBounded pins the warm decode path: no more than
// one alloc per Read call on average (growth paths aside).
func TestCodecDecodeAllocsBounded(t *testing.T) {
	in := testPayload(256<<10, 13)
	wire := encodeAll(t, in, Options{}, 1<<20)
	d := NewDecoder(bytes.NewReader(wire))
	if _, err := io.ReadAll(d); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	allocs := testing.AllocsPerRun(10, func() {
		d.Reset(bytes.NewReader(wire))
		for {
			if _, err := d.Read(buf); err != nil {
				if err == io.EOF {
					return
				}
				t.Fatal(err)
			}
		}
	})
	if allocs > 4 {
		t.Fatalf("warm decode allocates %.1f times per stream, want <= 4", allocs)
	}
}

func TestStatsRatioConsistency(t *testing.T) {
	in := testPayload(128<<10, 14)
	var wire bytes.Buffer
	e, err := NewEncoder(&wire, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Write(in); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Stats.InBytes != uint64(len(in)) {
		t.Fatalf("InBytes %d, want %d", e.Stats.InBytes, len(in))
	}
	if e.Stats.OutBytes != uint64(wire.Len()) {
		t.Fatalf("OutBytes %d, want wire %d", e.Stats.OutBytes, wire.Len())
	}
	d := NewDecoder(bytes.NewReader(wire.Bytes()))
	if _, err := io.ReadAll(d); err != nil {
		t.Fatal(err)
	}
	if d.Stats.InBytes != uint64(len(in)) {
		t.Fatalf("decoder InBytes %d, want %d", d.Stats.InBytes, len(in))
	}
	if d.Stats.OutBytes != uint64(wire.Len()) {
		t.Fatalf("decoder OutBytes %d, want %d", d.Stats.OutBytes, wire.Len())
	}
	if e.Stats.Lines != d.Stats.Lines || e.Stats.CableFrames != d.Stats.CableFrames ||
		e.Stats.RawFrames != d.Stats.RawFrames || e.Stats.TailBytes != d.Stats.TailBytes {
		t.Fatalf("stats disagree: enc %+v dec %+v", e.Stats, d.Stats)
	}
}
