package workload

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"cable/internal/obs"
)

// referenceLineInto is the historical derivation kept as the slow
// reference for materializeInto: a freshly allocated, stdlib-seeded
// rand.Rand per seed, no scratch state, no lazySource.
func referenceLineInto(g *Generator, dst []byte, lineAddr uint64) {
	rel := lineAddr - g.addrBase
	h := splitmix64(g.seed ^ rel)
	u := unit(h)
	mutRng := rand.New(rand.NewSource(int64(splitmix64(h ^ uint64(g.instance)*0x9E37))))
	switch {
	case u < g.spec.ZeroFrac:
		zeroLineInto(dst, mutRng)
	case u < g.spec.ZeroFrac+g.spec.ProtoFrac:
		objID := rel / uint64(g.spec.ObjLines)
		oh := splitmix64(g.seed ^ objID ^ 0x6F626A)
		copy(dst, g.protos[oh%uint64(len(g.protos))])
		editRng := mutRng
		if unit(splitmix64(h^0xC0DE)) < 0.6 {
			editRng = rand.New(rand.NewSource(int64(splitmix64(h ^ 0x1D3))))
		}
		for k := editRng.Intn(g.spec.MutateWords + 1); k > 0; k-- {
			off := editRng.Intn(LineSize/4) * 4
			binary.LittleEndian.PutUint32(dst[off:], editRng.Uint32())
		}
		if unit(splitmix64(oh^0x73686966)) < g.spec.ByteShiftFrac {
			shift := 1 + int(oh%3)
			var tmp [LineSize]byte
			copy(tmp[shift:], dst)
			copy(tmp[:shift], dst[LineSize-shift:])
			copy(dst, tmp[:])
		}
	default:
		freshLineInto(dst, g.spec.Model, mutRng)
		if g.spec.ZeroDominant {
			sparsify(dst, mutRng)
		}
	}
}

// TestLineCacheBitIdentical keeps its name from the line cache that
// used to sit here (tier-1's test list resolves it). What it pins now:
// LineData through the generator's one buffer and the lazily seeded
// scratch rng returns bytes identical to the historical derivation, for
// every benchmark spec, across instances, under a pattern that revisits
// lines after others have overwritten the buffer, then a sweep of cold
// lines wide enough to reach every content branch — and the only
// workload.* metric a generator registers is the count of those calls.
func TestLineCacheBitIdentical(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			reg := obs.NewRegistry()
			calls := uint64(0)
			for _, instance := range []int{0, 3} {
				addrBase := uint64(instance) * (1 << 32)
				g := NewFromSpecIn(spec, instance, addrBase, reg)
				// ref shares nothing with g and only lends its spec
				// and prototypes to referenceLineInto.
				ref := NewFromSpecIn(spec, instance, addrBase, nil)
				refBuf := make([]byte, LineSize)

				rels := []uint64{
					0, 1, 7,
					0, 1, // revisits
					1 << 15, 0, // a far line, then back
					1<<15 + 1, 1,
					uint64(spec.WorkingSetLines - 1),
				}
				for rel := uint64(8); rel < 520; rel++ {
					rels = append(rels, rel)
				}
				for i, rel := range rels {
					addr := addrBase + rel
					got := g.LineData(addr)
					calls++
					if len(got) != LineSize {
						t.Fatalf("LineData(%#x) len = %d", addr, len(got))
					}
					// Dirty the reference buffer first: the derivation
					// must fully overwrite stale contents.
					for j := range refBuf {
						refBuf[j] = 0xA5
					}
					referenceLineInto(ref, refBuf, addr)
					if !bytes.Equal(got, refBuf) {
						t.Fatalf("step %d: LineData(%#x) differs from pure derivation\n got %x\nwant %x",
							i, addr, got, refBuf)
					}
				}
			}
			snap := reg.Snapshot(true)
			if got := snap.Counters["workload.linecache_misses"]; got != calls {
				t.Errorf("workload.linecache_misses = %d, want %d (one per LineData call)", got, calls)
			}
			if n := len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms); n != 1 {
				t.Errorf("generators registered %d metrics, want the one counter: %+v", n, snap)
			}
		})
	}
}
