package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"cable/internal/bits"
	"cable/internal/core"
	"cable/internal/fault"
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

// wireFrames splits a well-formed wire image into its stream header and
// its frames.
func wireFrames(wire []byte) (hdr []byte, frames [][]byte) {
	n := headerFixed + int(wire[headerFixed-1])
	hdr, wire = wire[:n], wire[n:]
	for len(wire) > 0 {
		n = frameHdrLen + int(binary.LittleEndian.Uint32(wire[3:7]))
		frames = append(frames, wire[:n])
		wire = wire[n:]
	}
	return hdr, frames
}

// reseal rewrites every frame's CRC field so that the chain holds again,
// as far as the framing of wire can be followed: what a test that
// damages a stream on purpose calls to get its damage past the frame
// check and into the parsers behind it.
func reseal(wire []byte) {
	if len(wire) < headerFixed || len(wire) < headerFixed+int(wire[headerFixed-1]) {
		return
	}
	off := headerFixed + int(wire[headerFixed-1])
	crc := crc32.ChecksumIEEE(wire[:off])
	for off+frameHdrLen <= len(wire) {
		end := min(len(wire), off+frameHdrLen+int(binary.LittleEndian.Uint32(wire[off+3:off+7])))
		crc = crc32.Update(crc32.Update(crc, crc32.IEEETable, wire[off:off+crcOff]), crc32.IEEETable, wire[off+frameHdrLen:end])
		binary.LittleEndian.PutUint32(wire[off+crcOff:], crc)
		off = end
	}
}

// craftFrame lays out one frame with its CRC field left zero.
func craftFrame(kind byte, count int, body []byte) []byte {
	f := []byte{kind, byte(count), byte(count >> 8)}
	f = binary.LittleEndian.AppendUint32(f, uint32(len(body)))
	return append(append(f, 0, 0, 0, 0), body...)
}

// craftStream joins a stream header and hand-made frames and seals the
// CRC chain over them.
func craftStream(hdr []byte, frames ...[]byte) []byte {
	wire := bytes.Join(append([][]byte{hdr}, frames...), nil)
	reseal(wire)
	return wire
}

// corruptionStreams are the plaintexts the corruption tests damage, all
// encoded with corruptionOptions: eight full CABLE frames, eight raw
// frames and a tail, and a stream that ends on a line boundary inside a
// batch (a short last frame and no tail).
func corruptionStreams() []struct {
	name string
	in   []byte
} {
	noise := make([]byte, 4<<10+10) // 8 raw frames and a tail
	rand.New(rand.NewSource(15)).Read(noise)
	return []struct {
		name string
		in   []byte
	}{
		{"cable", testPayload(4<<10, 11)},
		{"raw+tail", noise},
		{"short frame", testPayload(2<<10+3*64, 20)},
	}
}

var corruptionOptions = Options{Batch: 8, DictBytes: 64 << 10}

// TestCorruptionExhaustive flips every bit and truncates at every byte
// of three real streams, and deletes, repeats and swaps their whole
// frames. Every flip must give an error or the original output; every
// cut and every frame edit must give an error. (The end frame is not
// repeated: the decoder reads nothing after it, so that is a whole
// stream with bytes behind it.)
func TestCorruptionExhaustive(t *testing.T) {
	for _, tc := range corruptionStreams() {
		t.Run(tc.name, func(t *testing.T) {
			wire := encodeAll(t, tc.in, corruptionOptions, 4096)
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
			if flips.silent > 0 {
				t.Errorf("%d bit flips decoded to different output without an error", flips.silent)
			}
			if cuts.silent+cuts.benign > 0 {
				t.Errorf("%d truncations decoded without an error", cuts.silent+cuts.benign)
			}

			hdr, frames := wireFrames(wire)
			if len(frames) < 4 {
				t.Fatalf("stream has only %d frames", len(frames))
			}
			join := func(fs ...[]byte) []byte { return bytes.Join(append([][]byte{hdr}, fs...), nil) }
			t.Logf("%d frames: %d deleted, repeated or swapped", len(frames), 3*len(frames)-2)
			for i := range frames {
				edits := map[string][]byte{
					"deleted": join(append(append([][]byte{}, frames[:i]...), frames[i+1:]...)...),
				}
				if i+1 < len(frames) {
					edits["repeated"] = join(append(append([][]byte{}, frames[:i+1]...), frames[i:]...)...)
					sw := append([][]byte{}, frames...)
					sw[i], sw[i+1] = sw[i+1], sw[i]
					edits["swapped with the next"] = join(sw...)
				}
				for what, w := range edits {
					if _, err := drainDecoder(t, w); err == nil {
						t.Errorf("frame %d of %d %s: decoded without an error", i, len(frames), what)
					}
				}
			}
		})
	}
}

// TestWireFaultCensus is the multi-bit and truncation census, with the
// tree's own fault model: internal/fault's injector at 2 and at 8 flips
// a copy, and at 2 flips with one copy in ten cut at a random bit, over
// the streams of TestCorruptionExhaustive. One Decoder serves every
// copy through Reset. No damaged copy may decode to different output
// without an error. CABLE_WIRE_CENSUS_COPIES sets the number of damaged
// copies (ci/check.sh asks for a million).
func TestWireFaultCensus(t *testing.T) {
	copies := 20000
	if s := os.Getenv("CABLE_WIRE_CENSUS_COPIES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("CABLE_WIRE_CENSUS_COPIES=%q: want a positive count", s)
		}
		copies = n
	}
	models := []struct {
		name         string
		flips, trunc float64
	}{{"2 flips", 2, 0}, {"8 flips", 8, 0}, {"2 flips, 1 in 10 cut", 2, 0.1}}
	streams := corruptionStreams()[:2]
	per := (copies + len(models)*len(streams) - 1) / (len(models) * len(streams))
	d := NewDecoder(nil)
	var rd bytes.Reader
	var total census
	for si, tc := range streams {
		wire := encodeAll(t, tc.in, corruptionOptions, 4096)
		mut := make([]byte, len(wire))
		for mi, m := range models {
			inj := fault.New(fault.Config{BitRate: m.flips / float64(8*len(wire)), TruncRate: m.trunc, Seed: uint64(1 + si*len(models) + mi)})
			var c census
			for c.detected+c.benign+c.silent < per {
				copy(mut, wire)
				nbits, damaged := inj.Corrupt(mut, 8*len(mut))
				if !damaged {
					continue
				}
				rd.Reset(mut[:(nbits+7)/8])
				d.Reset(&rd)
				got, err := io.ReadAll(d)
				if err != nil && !typedDecodeError(err) {
					t.Fatalf("untyped decode error: %v", err)
				}
				c.add(got, err, tc.in)
			}
			t.Logf("%s, %s: %d damaged copies -> %d detected, %d benign, %d silent", tc.name, m.name, per, c.detected, c.benign, c.silent)
			total.detected += c.detected
			total.benign += c.benign
			total.silent += c.silent
		}
	}
	t.Logf("census: %d damaged copies -> %d detected, %d benign, %d silent", total.detected+total.benign+total.silent, total.detected, total.benign, total.silent)
	if total.silent > 0 {
		t.Errorf("%d damaged copies decoded to different output without an error", total.silent)
	}
}

// TestDecoderResetAfterFailure is the decoder-side twin of
// TestEncoderSinkErrors: drive a Decoder into each class of error, then
// Reset it onto a good stream of the same geometry and onto one of a
// different geometry. Its output must equal a fresh decoder's byte for
// byte — which also shows the running CRC restarted from the new header
// — so nothing of a failed stream survives in a pooled instance.
func TestDecoderResetAfterFailure(t *testing.T) {
	in := testPayload(6<<10+5, 21)
	wire := encodeAll(t, in, corruptionOptions, 4096)
	hdr, frames := wireFrames(wire)

	badCRC := append([]byte(nil), wire...)
	badCRC[len(hdr)+len(frames[0])+len(frames[1])+frameHdrLen+3] ^= 0x20 // in the third frame's body

	// A frame that passes the check and still cannot decode: one payload
	// referencing a slot of the (empty) dictionary.
	var w bits.Writer
	w.WriteBits(0b101, 3)   // compressed, one reference
	w.WriteBits(5<<3|3, 10) // 128 sets x 8 ways: index 5, way 3
	w.WriteBits(0, 6)       // a DIFF: one run of 16 zero words
	badRef := append([]byte(nil), hdr...)
	badRef = append(badRef, kindCable, 1, 0, byte(len(w.Bytes())), 0, 0, 0, 0, 0, 0, 0)
	badRef = append(badRef, w.Bytes()...)
	reseal(badRef)

	otherIn := testPayload(5000, 22)
	other := encodeAll(t, otherIn, Options{LineSize: 32, DictBytes: 16 << 10, Engine: "bdi"}, 4096)

	for _, tc := range []struct {
		name string
		wire []byte
		want error
	}{
		{"bad CRC mid-stream", badCRC, core.ErrCRCMismatch},
		{"truncated body", wire[:len(wire)*2/3], core.ErrTruncatedPayload},
		{"bad reference in a sealed frame", badRef, core.ErrBadReference},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDecoder(bytes.NewReader(tc.wire))
			if _, err := io.ReadAll(d); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want an error wrapping %v", err, tc.want)
			}
			for _, next := range []struct{ wire, in []byte }{{wire, in}, {other, otherIn}, {wire, in}} {
				d.Reset(bytes.NewReader(next.wire))
				got, err := io.ReadAll(d)
				if err != nil {
					t.Fatalf("after Reset: %v", err)
				}
				if !bytes.Equal(got, next.in) {
					t.Fatal("after a failed stream and Reset the output differs from a fresh decoder's")
				}
				fresh := NewDecoder(bytes.NewReader(next.wire))
				if _, err := io.ReadAll(fresh); err != nil || fresh.Stats != d.Stats {
					t.Fatalf("stats after Reset %+v, fresh decoder's %+v (%v)", d.Stats, fresh.Stats, err)
				}
			}
		})
	}
}

// TestCableBodyEndsWithItsPayloads: a CABLE body is its payload images
// and then zero bits to the next byte. Sealed frames that break that —
// a set padding bit, a whole spare byte — are bad frames, so no two
// bodies decode to the same lines.
func TestCableBodyEndsWithItsPayloads(t *testing.T) {
	hdr, _ := wireFrames(encodeAll(t, nil, Options{}, 1))
	end := craftFrame(kindEnd, 0, binary.LittleEndian.AppendUint64(nil, 64))
	image := func(padding uint64) []byte {
		var w bits.Writer
		w.WriteBits(0b100, 3)    // compressed, no references
		w.WriteBits(0b001111, 6) // an LBE DIFF: one run of 16 zero words
		w.WriteBits(padding, 7)
		return w.Bytes()
	}
	got, err := io.ReadAll(NewDecoder(bytes.NewReader(craftStream(hdr, craftFrame(kindCable, 1, image(0)), end))))
	if err != nil || !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("crafted zero line: got %x, %v", got, err)
	}
	for name, body := range map[string][]byte{
		"padding bit set":    image(1),
		"a whole spare byte": append(image(0), 0),
	} {
		_, err := io.ReadAll(NewDecoder(bytes.NewReader(craftStream(hdr, craftFrame(kindCable, 1, body), end))))
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: got %v, want ErrBadFrame", name, err)
		}
	}
}

// TestVersion1Rejected: there is one wire version. A header that says
// 1 is a bad frame naming the version, not a stream read with fewer
// checks.
func TestVersion1Rejected(t *testing.T) {
	wire := encodeAll(t, testPayload(1000, 24), Options{}, 4096)
	if wire[4] != 2 {
		t.Fatalf("encoder writes version %d, want 2", wire[4])
	}
	wire[4] = 1
	_, err := io.ReadAll(NewDecoder(bytes.NewReader(wire)))
	if !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 header: got %v, want ErrBadFrame naming the version", err)
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
	sinkWrites := int(1 + e.Stats.CableFrames + e.Stats.RawFrames + 2) // header, frames, tail, end
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
	// A zero-byte wire is not a stream: an encoder that was Closed wrote
	// a header and an end frame.
	d := NewDecoder(bytes.NewReader(nil))
	if _, err := d.Read(make([]byte, 1)); !errors.Is(err, core.ErrTruncatedPayload) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("zero-byte wire: got %v, want a truncation error", err)
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

// TestDictWaysFitHeader: the header stores the ways in one byte, so 255
// is the most a stream can describe. 256 and 257 would be written as 0
// and 1, and the decoder would reject the stream or misread its frames.
func TestDictWaysFitHeader(t *testing.T) {
	for _, ways := range []int{256, 257} {
		o := Options{DictWays: ways, DictBytes: ways * 64 * 4}
		if _, err := NewEncoder(io.Discard, o); err == nil || !strings.Contains(err.Error(), "ways field") {
			t.Fatalf("%d ways: got %v, want the header-field error", ways, err)
		}
	}
	in := testPayload(64<<10, 255)
	wire := encodeAll(t, in, Options{DictWays: 255, DictBytes: 255 * 64 * 4}, 4096)
	if got := decodeAll(t, wire, 4096); !bytes.Equal(got, in) {
		t.Fatal("255-way round trip mismatch")
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

// TestCodecStreamAllocs pins what a whole warm stream allocates — Reset,
// Write, Close on the encoder, Reset and decode to EOF on the decoder —
// at the stream header's share: one buffer on the encoder, the fixed
// part and the engine name on the decoder. Every buffer wire v2 added
// lives on the instance and survives Reset. (Zero waits for the frozen
// harness's TestSmoke to accept a 0 allocs_per_kline: ROADMAP item 1.)
func TestCodecStreamAllocs(t *testing.T) {
	in := testPayload(256<<10+9, 19)
	var wire bytes.Buffer
	e, err := NewEncoder(&wire, Options{})
	if err != nil {
		t.Fatal(err)
	}
	encode := func() {
		wire.Reset()
		e.Reset(&wire)
		if _, err := e.Write(in); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDecoder(nil)
	var rd bytes.Reader
	buf := make([]byte, 64<<10)
	decode := func() {
		rd.Reset(wire.Bytes())
		d.Reset(&rd)
		for {
			if _, err := d.Read(buf); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	}
	encode() // warm-up: grow every buffer to its steady size
	decode()
	if allocs := testing.AllocsPerRun(5, encode); allocs > 1 {
		t.Errorf("a warm encoder allocates %.1f times a stream, want <= 1", allocs)
	}
	if allocs := testing.AllocsPerRun(5, decode); allocs > 2 {
		t.Errorf("a warm decoder allocates %.1f times a stream, want <= 2", allocs)
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
