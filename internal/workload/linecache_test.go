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

// TestLineCacheBitIdentical is the Level-1 cache contract: LineData
// through the direct-mapped line cache and the lazily seeded scratch
// rng returns bytes identical to the historical derivation, for every
// benchmark spec, across instances, under a pattern that exercises
// hits, misses, conflict evictions and refills, then a sweep of cold
// lines wide enough to reach every content branch.
func TestLineCacheBitIdentical(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, instance := range []int{0, 3} {
				addrBase := uint64(instance) * (1 << 32)
				cached := NewFromSpec(spec, instance, addrBase)
				// ref shares nothing with cached and only lends its
				// spec and prototypes to referenceLineInto.
				ref := NewFromSpec(spec, instance, addrBase)
				refBuf := make([]byte, LineSize)

				slots := uint64(lineCacheSlots(spec.WorkingSetLines))
				rels := []uint64{
					0, 1, 7, // cold misses
					0, 1, // hits
					slots,        // conflicts with rel 0: eviction
					0,            // refill after eviction
					slots + 1, 1, // evict and refill slot 1
					2 * slots, 0, // second-generation conflict on slot 0
					uint64(spec.WorkingSetLines - 1),
				}
				for rel := uint64(8); rel < 520; rel++ {
					rels = append(rels, rel)
				}
				for i, rel := range rels {
					addr := addrBase + rel
					got := cached.LineData(addr)
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
						t.Fatalf("step %d: cached LineData(%#x) differs from pure derivation\n got %x\nwant %x",
							i, addr, got, refBuf)
					}
				}
			}
		})
	}
}

// TestLineCacheCounters pins the cache's observable behavior on a
// private registry: the access pattern above has a known hit/miss/
// eviction decomposition.
func TestLineCacheCounters(t *testing.T) {
	spec, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g := NewFromSpecIn(spec, 0, 0, reg)
	slots := uint64(lineCacheSlots(spec.WorkingSetLines))

	// miss, hit, miss(conflict evict), miss(refill evict), hit
	for _, rel := range []uint64{0, 0, slots, 0, 0} {
		g.LineData(rel)
	}
	snap := reg.Snapshot(false)
	if got := snap.Counters["workload.linecache_hits"]; got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	if got := snap.Counters["workload.linecache_misses"]; got != 3 {
		t.Errorf("misses = %d, want 3", got)
	}
	if got := snap.Counters["workload.linecache_evictions"]; got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
}
