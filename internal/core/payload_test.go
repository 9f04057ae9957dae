package core

import (
	"bytes"
	"testing"

	"cable/internal/bits"
	"cable/internal/cache"
	"cable/internal/compress"
)

func TestPayloadBitsAccounting(t *testing.T) {
	raw := Payload{Raw: make([]byte, 64)}
	if got := raw.Bits(17); got != 1+512 {
		t.Fatalf("raw bits = %d, want 513", got)
	}
	diff := compress.Encoded{Data: []byte{0xFF, 0xC0}, NBits: 10}
	p := Payload{Compressed: true, Refs: []cache.LineID{{Index: 1, Way: 2}, {Index: 3, Way: 4}}, Diff: diff}
	// 1 flag + 2 refcount + 2×17 + 10 diff
	if got := p.Bits(17); got != 1+2+34+10 {
		t.Fatalf("compressed bits = %d, want 47", got)
	}
	standalone := Payload{Compressed: true, Diff: diff}
	if got := standalone.Bits(17); got != 1+2+10 {
		t.Fatalf("standalone bits = %d, want 13", got)
	}
}

func TestPayloadMarshalRoundTrip(t *testing.T) {
	idxBits, wayBits := 9, 3
	cases := []Payload{
		{Raw: bytes.Repeat([]byte{0xA5}, 64)},
		{Compressed: true, Diff: compress.Encoded{Data: []byte{0b10110000}, NBits: 4}},
		{
			Compressed: true,
			Refs:       []cache.LineID{{Index: 511, Way: 7}, {Index: 0, Way: 0}, {Index: 257, Way: 3}},
			Diff:       compress.Encoded{Data: []byte{0xDE, 0xAD, 0xBE}, NBits: 23},
		},
	}
	got, ps := new(Payload), new(PayloadScratch)
	var w bits.Writer
	for i, p := range cases {
		enc := p.MarshalInto(&w, idxBits, wayBits)
		if enc.NBits != p.Bits(idxBits+wayBits) {
			t.Fatalf("case %d: marshal %d bits, Bits() %d", i, enc.NBits, p.Bits(idxBits+wayBits))
		}
		if err := UnmarshalPayloadScratch(got, ps, enc, idxBits, wayBits, 64); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Compressed != p.Compressed || len(got.Refs) != len(p.Refs) ||
			got.Diff.NBits != p.Diff.NBits || !bytes.Equal(got.Raw, p.Raw) {
			t.Fatalf("case %d: mismatch\n got %+v\nwant %+v", i, got, p)
		}
		for j := range p.Refs {
			if got.Refs[j] != p.Refs[j] {
				t.Fatalf("case %d ref %d: %v != %v", i, j, got.Refs[j], p.Refs[j])
			}
		}
		gr, pr := got.Diff.Reader(), p.Diff.Reader()
		for pr.Remaining() > 0 {
			a, _ := gr.ReadBit()
			b, _ := pr.ReadBit()
			if a != b {
				t.Fatalf("case %d: diff bits differ", i)
			}
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	p, ps := new(Payload), new(PayloadScratch)
	if err := UnmarshalPayloadScratch(p, ps, compress.Encoded{}, 9, 3, 64); err == nil {
		t.Fatal("empty payload should error")
	}
	// Raw flag but truncated body.
	short := compress.Encoded{Data: []byte{0x00, 0xFF}, NBits: 9}
	if err := UnmarshalPayloadScratch(p, ps, short, 9, 3, 64); err == nil {
		t.Fatal("truncated raw payload should error")
	}
}

func TestSearchLatencyModel(t *testing.T) {
	cases := []struct{ sigs, want int }{
		{0, 0},
		{1, 9},
		{2, 9},
		{16, 16},
		{14, 15},
	}
	for _, c := range cases {
		if got := searchLatency(c.sigs); got != c.want {
			t.Errorf("searchLatency(%d) = %d, want %d", c.sigs, got, c.want)
		}
	}
	if EndToEndLatency != 64 {
		t.Errorf("EndToEndLatency = %d, want 64 (16 search + 32 comp + 16 decomp)", EndToEndLatency)
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.MaxRefs = 4 },
		func(c *Config) { c.MaxRefs = -1 },
		func(c *Config) { c.AccessCount = 0 },
		func(c *Config) { c.BucketDepth = 0 },
		func(c *Config) { c.HashSizeFactor = 0 },
		func(c *Config) { c.MaxSearchSigs = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}
