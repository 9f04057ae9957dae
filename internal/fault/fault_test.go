package fault

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"cable/internal/obs"
)

func TestZeroConfigBuildsNoInjector(t *testing.T) {
	if in := New(Config{}); in != nil {
		t.Fatalf("zero config built an injector: %+v", in)
	}
	if in := New(Config{Seed: 42}); in != nil {
		t.Fatal("seed without rates built an injector")
	}
	if New(Config{BitRate: 1e-3}) == nil {
		t.Fatal("non-zero BitRate built no injector")
	}
	if New(Config{TruncRate: 1e-2}) == nil {
		t.Fatal("non-zero TruncRate built no injector")
	}
}

// TestDeterministicPattern: same seed and rates over the same image
// stream must corrupt identically, byte for byte and stat for stat.
func TestDeterministicPattern(t *testing.T) {
	cfg := Config{BitRate: 1e-2, TruncRate: 1e-2, Seed: 7}
	run := func() ([][]byte, []int, Stats) {
		in := New(cfg)
		var imgs [][]byte
		var lens []int
		for i := 0; i < 500; i++ {
			img := make([]byte, 64)
			for j := range img {
				img[j] = byte(i + j)
			}
			nb, _ := in.Corrupt(img, len(img)*8)
			imgs = append(imgs, img)
			lens = append(lens, nb)
		}
		return imgs, lens, in.Stats
	}
	a, al, as := run()
	b, bl, bs := run()
	if as != bs {
		t.Fatalf("stats diverged: %+v vs %+v", as, bs)
	}
	if as.Corrupted == 0 {
		t.Fatal("500 images at 1e-2 rates corrupted nothing; rate plumbing broken")
	}
	for i := range a {
		if al[i] != bl[i] || !bytes.Equal(a[i], b[i]) {
			t.Fatalf("image %d diverged between identical runs", i)
		}
	}
}

// TestAccountingInvariants: Corrupted counts exactly the images whose
// bits or length changed, and truncation never lengthens an image.
func TestAccountingInvariants(t *testing.T) {
	in := New(Config{BitRate: 5e-3, TruncRate: 5e-2, Seed: 1})
	var observed uint64
	for i := 0; i < 2000; i++ {
		img := make([]byte, 32)
		for j := range img {
			img[j] = byte(j * 3)
		}
		orig := append([]byte(nil), img...)
		nbits := len(img) * 8
		nb, corrupted := in.Corrupt(img, nbits)
		if nb > nbits {
			t.Fatalf("truncation grew the image: %d > %d", nb, nbits)
		}
		changed := nb != nbits || !bytes.Equal(img, orig)
		if changed != corrupted {
			t.Fatalf("image %d: corrupted=%v but changed=%v", i, corrupted, changed)
		}
		if corrupted {
			observed++
		}
	}
	if in.Stats.Images != 2000 {
		t.Fatalf("Images = %d, want 2000", in.Stats.Images)
	}
	if in.Stats.Corrupted != observed {
		t.Fatalf("Stats.Corrupted = %d, observed %d", in.Stats.Corrupted, observed)
	}
	if in.Stats.BitsFlipped == 0 || in.Stats.Truncations == 0 {
		t.Fatalf("expected both fault kinds at these rates: %+v", in.Stats)
	}
}

func TestRateToThreshold(t *testing.T) {
	if got := rateToThreshold(0); got != 0 {
		t.Fatalf("rate 0 → %d, want 0", got)
	}
	if got := rateToThreshold(1); got != ^uint64(0) {
		t.Fatalf("rate 1 → %d, want max", got)
	}
	if got := rateToThreshold(0.5); got < 1<<62 || got > 1<<63 {
		t.Fatalf("rate 0.5 → %#x, want ≈ 1<<63", got)
	}
	// rate 1 must flip every bit.
	in := New(Config{BitRate: 1, Seed: 3})
	img := []byte{0x00, 0xFF}
	nb, corrupted := in.Corrupt(img, 16)
	if !corrupted || nb != 16 || img[0] != 0xFF || img[1] != 0x00 {
		t.Fatalf("rate-1 flip: corrupted=%v nb=%d img=%x", corrupted, nb, img)
	}
}

// TestConcurrentInjectors drives independent injectors (the supported
// concurrency model: one per simulation) against the shared default
// metric counters from many goroutines; run under -race in CI.
func TestConcurrentInjectors(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			in := New(Config{BitRate: 1e-2, Seed: seed})
			img := make([]byte, 64)
			for i := 0; i < 200; i++ {
				in.Corrupt(img, len(img)*8)
			}
		}(uint64(g + 1))
	}
	wg.Wait()
}

// refCorrupt is Corrupt with one in.next() and one counter bump per
// drawn bit: the reference the register-held loop must match.
func refCorrupt(in *Injector, data []byte, nbits int) (outBits int, corrupted bool) {
	in.Stats.Images++
	in.mx.images.Inc(in.shard)
	outBits = nbits
	if in.truncThresh > 0 && nbits > 0 && in.next() < in.truncThresh {
		outBits = int(in.next() % uint64(nbits))
		in.Stats.Truncations++
		in.mx.truncations.Inc(in.shard)
		corrupted = true
	}
	if in.bitThresh > 0 {
		for pos := 0; pos < outBits; pos++ {
			if in.next() < in.bitThresh {
				data[pos/8] ^= 0x80 >> uint(pos%8)
				in.Stats.BitsFlipped++
				in.mx.bitsFlipped.Inc(in.shard)
				corrupted = true
			}
		}
	}
	if corrupted {
		in.Stats.Corrupted++
		in.mx.corrupted.Inc(in.shard)
	}
	return outBits, corrupted
}

// TestCorruptMatchesReference runs Corrupt and refCorrupt side by side
// across seeds, bit rates, truncation rates and every image length from
// 0 to 600 bits: the images, outBits, corrupted, Stats, the fault.*
// counters and the stream that follows must all agree.
func TestCorruptMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 7, 0xDEADBEEF} {
		for _, bitRate := range []float64{0, 1e-3, 3e-2, 0.5, 1} {
			for _, truncRate := range []float64{0, 1e-2, 0.5} {
				cfg := Config{BitRate: bitRate, TruncRate: truncRate, Seed: seed}
				if !cfg.Enabled() {
					continue
				}
				regGot, regWant := obs.NewRegistry(), obs.NewRegistry()
				got, want := NewIn(cfg, regGot), NewIn(cfg, regWant)
				fill := New(Config{BitRate: 0.5, Seed: seed})
				for nbits := 0; nbits <= 600; nbits++ {
					img := make([]byte, (nbits+7)/8+1)
					fill.Corrupt(img, len(img)*8)
					ref := append([]byte(nil), img...)
					gb, gc := got.Corrupt(img, nbits)
					wb, wc := refCorrupt(want, ref, nbits)
					if gb != wb || gc != wc || !bytes.Equal(img, ref) || got.Stats != want.Stats {
						t.Fatalf("%+v, %d bits: Corrupt = (%d, %v, %x, %+v), reference (%d, %v, %x, %+v)",
							cfg, nbits, gb, gc, img, got.Stats, wb, wc, ref, want.Stats)
					}
				}
				if g, w := got.next(), want.next(); g != w {
					t.Fatalf("%+v: the stream after the images diverged: %#x, reference %#x", cfg, g, w)
				}
				if g, w := regGot.Snapshot(false).Counters, regWant.Snapshot(false).Counters; !reflect.DeepEqual(g, w) {
					t.Fatalf("%+v: counters %v, reference %v", cfg, g, w)
				}
			}
		}
	}
}
