package core

import (
	"bytes"
	"math/bits"
	"sort"
	"testing"

	bitio "cable/internal/bits"
	"cable/internal/cache"
	"cable/internal/compress"
	"cable/internal/obs"
	"cable/internal/workload"
)

// referenceFill is the slow reference for the fill pipeline's encode
// step: the §III-C/E decision sequence written straight down from the
// paper against the end's current tables — freshly allocated buffers,
// the engine's allocating Compress, a linear-scan dedup, a library
// sort, a word-by-word CBV, a recursive subset search; no scratch, no
// counters, no deferred anything. It reads h's hash table, way-map and
// home cache and mutates nothing, so it must be called before the
// EncodeFill it predicts.
func referenceFill(h *HomeEnd, remote *cache.Cache, data []byte) Payload {
	lidBits := remote.IndexBits() + remote.WayBits()
	if h.cfg.PointerBitsOverride > 0 {
		lidBits = h.cfg.PointerBitsOverride
	}
	sized := func(p Payload) int {
		if !p.Compressed {
			return 1 + 8*len(p.Raw)
		}
		return 1 + 2 + len(p.Refs)*lidBits + p.Diff.NBits
	}

	standalone := h.engine.CompressScratch(new(compress.Scratch), data, nil)
	best := Payload{Compressed: true, Diff: standalone}
	if raw := (Payload{Raw: append([]byte(nil), data...)}); sized(raw) < sized(best) {
		best = raw
	}
	if compress.Ratio(len(data), standalone.NBits) >= h.cfg.StandaloneThreshold {
		return best
	}

	// Signature search: every live entry of every probed bucket, first
	// seen first, counting how many signatures led to each line.
	var cands []candidate
	for _, s := range h.ex.AppendSearchSignatures(nil, data, h.cfg.MaxSearchSigs) {
	entries:
		for _, e := range h.ht.bucket(s) {
			if e == 0 {
				continue
			}
			for i := range cands {
				if cands[i].id == e.id() {
					cands[i].dups++
					continue entries
				}
			}
			cands = append(cands, candidate{id: e.id(), dups: 1})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].dups > cands[j].dups })
	if len(cands) > h.cfg.AccessCount {
		cands = cands[:h.cfg.AccessCount]
	}

	// Residency, data-array read, coverage bit vector.
	var usable []candidate
	for _, c := range cands {
		rid, resident := h.wmt.Lookup(c.id)
		if !resident {
			continue
		}
		line := h.home.ReadByID(c.id)
		if line == nil {
			continue
		}
		c.remoteID, c.data = rid, line.Data
		for w := 0; w < len(data)/4; w++ {
			if bytes.Equal(data[4*w:4*w+4], line.Data[4*w:4*w+4]) {
				c.cbv |= 1 << uint(w)
			}
		}
		if c.cbv != 0 {
			usable = append(usable, c)
		}
	}

	refs := referenceSelect(usable, h.cfg.MaxRefs)
	if len(refs) == 0 {
		return best
	}
	p := Payload{Compressed: true}
	var refData [][]byte
	for _, c := range refs {
		p.Refs = append(p.Refs, c.remoteID)
		refData = append(refData, c.data)
	}
	p.Diff = h.engine.CompressScratch(new(compress.Scratch), data, refData)
	if sized(p) < sized(best) {
		best = p
	}
	return best
}

// referenceSelect is the reference-set choice of §III-C by exhaustive
// recursion: the subset of at most maxRefs candidates with the largest
// combined coverage, ties to fewer references, then to more duplicate
// signatures, then to the lexicographically first; members adding no
// coverage over the rest are dropped.
func referenceSelect(cands []candidate, maxRefs int) []candidate {
	var best []int
	bestCover, bestDups := 0, 0
	var walk func(start int, chosen []int)
	walk = func(start int, chosen []int) {
		if len(chosen) > 0 {
			var cbv uint32
			dups := 0
			for _, i := range chosen {
				cbv |= cands[i].cbv
				dups += cands[i].dups
			}
			cover := bits.OnesCount32(cbv)
			if cover > bestCover ||
				cover == bestCover && len(chosen) < len(best) ||
				cover == bestCover && len(chosen) == len(best) && dups > bestDups {
				best, bestCover, bestDups = append([]int(nil), chosen...), cover, dups
			}
		}
		if len(chosen) == maxRefs {
			return
		}
		for i := start; i < len(cands); i++ {
			walk(i+1, append(chosen[:len(chosen):len(chosen)], i))
		}
	}
	walk(0, nil)
	var out []candidate
	for _, i := range best {
		var others uint32
		for _, j := range best {
			if j != i {
				others |= cands[j].cbv
			}
		}
		if cands[i].cbv&^others != 0 || len(best) == 1 {
			out = append(out, cands[i])
		}
	}
	if len(out) == 0 && len(best) > 0 {
		out = append(out, cands[best[0]])
	}
	return out
}

// requireSamePayload compares two payloads by wire image, bit for bit.
func requireSamePayload(t *testing.T, addr uint64, got, want Payload, geom *cache.Cache) {
	t.Helper()
	var gw, ww bitio.Writer
	g := got.MarshalInto(&gw, geom.IndexBits(), geom.WayBits())
	w := want.MarshalInto(&ww, geom.IndexBits(), geom.WayBits())
	if g.NBits != w.NBits || !bytes.Equal(g.Data, w.Data) {
		t.Fatalf("fill %#x: pipeline payload differs from the reference encoder\n got %d bits, %d refs, compressed=%v: %x\nwant %d bits, %d refs, compressed=%v: %x",
			addr, g.NBits, len(got.Refs), got.Compressed, g.Data, w.NBits, len(want.Refs), want.Compressed, w.Data)
	}
}

// TestPipelineMatchesReference drives the full link protocol over the
// three trace benchmarks the codec's home-turf workload is made of and
// requires every fill payload the pipeline emits to equal the slow
// reference's, bit for bit, once the caches are warm.
func TestPipelineMatchesReference(t *testing.T) {
	for _, name := range []string{"mcf", "dealII", "lbm"} {
		t.Run(name, func(t *testing.T) {
			gen, err := workload.NewIn(name, 0, 0, obs.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Metrics = obs.NewRegistry()
			h := newLinkHarness(t, cfg, 256, 32)
			request := func() {
				a := gen.Next()
				if _, ok := h.backing[a.LineAddr]; !ok {
					h.backing[a.LineAddr] = append([]byte(nil), gen.LineData(a.LineAddr)...)
				}
				h.request(a.LineAddr, a.Write)
			}
			for h.fills < 600 {
				request()
			}
			h.checkReference = true
			warm, stats := h.fills, h.he.Stats
			for h.fills < warm+2000 {
				request()
			}
			s := h.he.Stats
			t.Logf("%d fills checked: %d raw, %d standalone (%d skips), %d diff",
				h.fills-warm, s.RawWins-stats.RawWins, s.StandaloneWins-stats.StandaloneWins,
				s.ThresholdSkips-stats.ThresholdSkips, s.DiffWins-stats.DiffWins)
			if s.DiffWins == stats.DiffWins {
				t.Fatal("no reference-seeded payload among the checked fills")
			}
			// Every fill ends in exactly one class and a DIFF against k
			// references is RefsUsed[k]: what lets the breakdown
			// experiment read its columns from HomeStats.
			if s.RawWins+s.StandaloneWins+s.DiffWins != s.Fills ||
				s.RefsUsed[0] != s.StandaloneWins ||
				s.RefsUsed[1]+s.RefsUsed[2]+s.RefsUsed[3] != s.DiffWins {
				t.Fatalf("class counts do not partition the fills: %+v", s)
			}
		})
	}
}

// TestPipelineMatchesReferenceCorners pins the three exits of the
// decision sequence one line at a time: a zero line leaves at the
// threshold check, an incompressible line falls back to raw, and a
// near-copy of a resident line goes out as a DIFF.
func TestPipelineMatchesReferenceCorners(t *testing.T) {
	h := newLinkHarness(t, DefaultConfig(), 64, 16)
	h.checkReference = true
	noise := make([]byte, 64)
	h.rng.Read(noise)
	resident := append([]byte(nil), h.protos[0]...)
	nearCopy := append([]byte(nil), resident...)
	nearCopy[5] ^= 0x40

	fill := func(addr uint64, data []byte) HomeStats {
		before := h.he.Stats
		h.backing[addr] = data
		h.request(addr, false)
		after := h.he.Stats
		return HomeStats{
			RawWins:        after.RawWins - before.RawWins,
			StandaloneWins: after.StandaloneWins - before.StandaloneWins,
			ThresholdSkips: after.ThresholdSkips - before.ThresholdSkips,
			DiffWins:       after.DiffWins - before.DiffWins,
		}
	}
	if d := fill(1, make([]byte, 64)); d.ThresholdSkips != 1 || d.StandaloneWins != 1 {
		t.Fatalf("zero line: %+v, want a threshold-skipped standalone payload", d)
	}
	if d := fill(2, noise); d.RawWins != 1 || d.ThresholdSkips != 0 {
		t.Fatalf("incompressible line: %+v, want a searched raw payload", d)
	}
	fill(3, resident)
	if d := fill(4, nearCopy); d.DiffWins != 1 {
		t.Fatalf("near-copy of a resident line: %+v, want a DIFF payload", d)
	}
}
