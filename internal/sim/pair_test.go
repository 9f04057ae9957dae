package sim

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"cable/internal/cache"
	"cable/internal/core"
	"cable/internal/fault"
	"cable/internal/link"
	"cable/internal/mem"
	"cable/internal/obs"
)

// pairLine is the rig's backing content: near-copies of one prototype
// (every line differs from it in one word), so fills find references.
func pairLine(addr uint64) []byte {
	d := make([]byte, 64)
	for i := range d {
		d[i] = byte(i*37 + 11)
	}
	binary.LittleEndian.PutUint32(d[(addr%16)*4:], uint32(addr*2654435761))
	return d
}

// pairRig is one remote cache, a backing store, and one pair per home.
type pairRig struct {
	t      *testing.T
	store  *mem.Store
	remote *cache.Cache
	pairs  []*Pair
}

// newPairRig builds homes pairs over one 32-set remote cache. Each home
// has 64 sets × homeWays. mutate adjusts the shared pair config; wm
// supplies per-pair way-maps (nil: private).
func newPairRig(t *testing.T, homes, homeWays int, mutate func(*PairConfig), wm func(h int, remote *cache.Cache) core.WayMap) *pairRig {
	t.Helper()
	reg := obs.NewRegistry()
	r := &pairRig{
		t:      t,
		store:  mem.NewStore(64, pairLine),
		remote: cache.New(cache.Config{Name: "r", SizeBytes: 32 * 8 * 64, Ways: 8, LineSize: 64}),
	}
	for h := 0; h < homes; h++ {
		cfg := PairConfig{Cable: core.DefaultConfig(), Link: link.NewIn(link.DefaultConfig(), reg), Verify: true}
		cfg.Cable.Metrics = reg
		if mutate != nil {
			mutate(&cfg)
		}
		if wm != nil {
			cfg.WayMap = wm(h, r.remote)
		}
		home := cache.New(cache.Config{Name: "h", SizeBytes: 64 * homeWays * 64, Ways: homeWays, LineSize: 64})
		p, err := NewPair(home, r.remote, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.pairs = append(r.pairs, p)
	}
	return r
}

// fill runs one remote miss the way an explicit-notice driver does:
// home copy, victim eviction, fill.
func (r *pairRig) fill(p *Pair, addr uint64, state cache.State) FillResult {
	r.t.Helper()
	line, _, _, _ := p.EnsureHome(addr, r.store, nil)
	way, victim, occupied := r.remote.Victim(addr)
	if occupied && !p.silent {
		ev, _ := r.remote.Invalidate(victim)
		p.EvictRemote(ev)
	}
	res := p.Fill(addr, line.Data, state, way)
	got, _, ok := r.remote.Probe(addr)
	if !ok || !bytes.Equal(got.Data, r.store.Read(addr)) {
		r.t.Fatalf("line %#x: remote copy is not the ground truth", addr)
	}
	return res
}

// write applies a store to a resident remote line, upgrading it first
// (Probe: the rig's writes leave replacement order alone).
func (r *pairRig) write(p *Pair, addr uint64) []byte {
	r.t.Helper()
	line, id, ok := r.remote.Probe(addr)
	if !ok {
		r.t.Fatalf("line %#x not resident", addr)
	}
	if line.State == cache.Shared {
		p.Upgrade(id, line.Data, addr)
		line.State = cache.Modified
	}
	line.Data[3] ^= 0x5a
	return append([]byte(nil), line.Data...)
}

func (r *pairRig) checkSync() {
	r.t.Helper()
	for h, p := range r.pairs {
		if err := p.CheckSync(); err != nil {
			r.t.Fatalf("pair %d: %v", h, err)
		}
	}
}

// TestPairSteps drives each protocol variant through the pair's steps
// and checks, after every case, the effects the step order promises
// and the synchronization invariant.
func TestPairSteps(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"inclusive fill, hit, upgrade, dirty evict", func(t *testing.T) {
			r := newPairRig(t, 1, 16, nil, nil)
			p := r.pairs[0]
			first := r.fill(p, 0, cache.Shared)
			var last FillResult
			for a := uint64(1); a < 24; a++ {
				last = r.fill(p, a, cache.Shared)
			}
			if !first.Decoded || last.Wire >= first.Wire {
				t.Fatalf("a near-copy fill (%d wire bits) should beat the cold one (%d)", last.Wire, first.Wire)
			}
			if n := p.Home.WMT().Occupancy(); n != 24 {
				t.Fatalf("way-map tracks %d lines, want 24", n)
			}
			r.checkSync()

			dirty := r.write(p, 5)
			if n := p.Home.WMT().Occupancy(); n != 23 {
				t.Fatalf("upgrade left %d way-map entries, want 23", n)
			}
			r.checkSync()

			ev, _ := r.remote.Invalidate(5)
			wb, absorbed := p.EvictRemote(ev)
			hl, _, _ := p.HomeCache.Probe(5)
			if !absorbed || wb.Wire == 0 || hl.State != cache.Modified || !bytes.Equal(hl.Data, dirty) {
				t.Fatalf("home did not absorb the write-back: absorbed=%v wire=%d state=%v", absorbed, wb.Wire, hl.State)
			}
			if p.Home.AckSeq != 1 || p.Remote.EvictionBuffer().Len() != 1 {
				t.Fatalf("explicit notice: AckSeq=%d buffered=%d, want 1/1", p.Home.AckSeq, p.Remote.EvictionBuffer().Len())
			}
			// The next fill's response acknowledges the eviction.
			r.fill(p, 100, cache.Shared)
			if n := p.Remote.EvictionBuffer().Len(); n != 0 {
				t.Fatalf("%d eviction-buffer entries survive the ack", n)
			}
			r.checkSync()
		}},
		{"silent eviction", func(t *testing.T) {
			r := newPairRig(t, 1, 16, func(c *PairConfig) { c.Silent = true }, nil)
			p := r.pairs[0]
			// Fill one remote set (addresses ≡ 0 mod 32), dirty one line,
			// then fill a ninth line into the set.
			for i := uint64(0); i < 8; i++ {
				r.fill(p, i*32, cache.Shared)
			}
			_, victim, _ := r.remote.Victim(8 * 32)
			dirty := r.write(p, victim)
			res := r.fill(p, 8*32, cache.Shared)
			if res.Victim.LineAddr != victim || res.VictimWB.Wire == 0 {
				t.Fatalf("fill reported victim %#x (wb %d bits), want %#x written back", res.Victim.LineAddr, res.VictimWB.Wire, victim)
			}
			// The install reused the victim's slot buffer; the reported
			// victim must still read as the line that left.
			if !bytes.Equal(res.Victim.Data, dirty) {
				t.Fatal("reported victim bytes are not the evicted line's")
			}
			if hl, _, _ := p.HomeCache.Probe(victim); !bytes.Equal(hl.Data, dirty) {
				t.Fatal("home did not absorb the silently evicted dirty line")
			}
			if p.Home.AckSeq != 0 || p.Remote.EvictionBuffer().Len() != 0 {
				t.Fatalf("silent protocol sent a notice: AckSeq=%d buffered=%d", p.Home.AckSeq, p.Remote.EvictionBuffer().Len())
			}
			// A clean victim: nothing crosses the link for it.
			if res = r.fill(p, 9*32, cache.Shared); res.Victim.Data == nil || res.VictimWB.Wire != 0 {
				t.Fatalf("clean silent victim: reported=%v wb=%d bits", res.Victim.Data != nil, res.VictimWB.Wire)
			}
			r.checkSync()
		}},
		{"non-inclusive write-back the home no longer caches", func(t *testing.T) {
			r := newPairRig(t, 1, 2, func(c *PairConfig) { c.Cable.WritebackCompression = false }, nil)
			p := r.pairs[0]
			r.fill(p, 7, cache.Shared)
			dirty := r.write(p, 7)
			// Two more lines of home set 7 push line 7 out of the 2-way
			// home; the remote keeps its copy.
			_, _, evicted, _ := p.EnsureHome(7+64, r.store, nil)
			_, _, evicted2, _ := p.EnsureHome(7+128, r.store, nil)
			if evicted || !evicted2 {
				t.Fatalf("home evictions = %v, %v; want false, true", evicted, evicted2)
			}
			if _, _, ok := r.remote.Probe(7); !ok {
				t.Fatal("non-inclusive home eviction invalidated the remote copy")
			}
			r.checkSync()
			ev, _ := r.remote.Invalidate(7)
			wb, absorbed := p.EvictRemote(ev)
			if absorbed || wb.Wire == 0 {
				t.Fatalf("absorbed=%v wire=%d; the home no longer caches the line", absorbed, wb.Wire)
			}
			r.store.Write(ev.LineAddr, ev.Data) // the driver's part
			if !bytes.Equal(r.store.Read(7), dirty) {
				t.Fatal("memory did not take the write-back")
			}
			r.checkSync()
		}},
		{"two pairs, one remote cache, pooled way-map", func(t *testing.T) {
			var pool *core.SuperWMT
			r := newPairRig(t, 2, 8, func(c *PairConfig) { c.Cable.WritebackCompression = false },
				func(h int, remote *cache.Cache) core.WayMap {
					if pool == nil {
						// 64 entries for a 256-line remote cache: the pool
						// evicts under contention.
						var err error
						if pool, err = core.NewSuperWMT(64, 4, remote, remote); err != nil {
							t.Fatal(err)
						}
					}
					return pool.View(h + 1)
				})
			owner := func(addr uint64) *Pair { return r.pairs[(addr/4)%2] }
			for a := uint64(0); a < 400; a++ {
				p := owner(a)
				line, _, _, _ := p.EnsureHome(a, r.store, nil)
				way, victim, occupied := r.remote.Victim(a)
				if occupied {
					ev, _ := r.remote.Invalidate(victim)
					owner(victim).EvictRemote(ev)
				}
				p.Fill(a, line.Data, cache.Shared, way)
			}
			if pool.Evictions == 0 {
				t.Fatal("pool never evicted: the case does not exercise contention")
			}
			for h, p := range r.pairs {
				if p.Home.WMT().Occupancy() == 0 {
					t.Fatalf("pair %d tracks nothing in the pool", h)
				}
			}
			r.checkSync()
		}},
		{"faulted fill degrades to the ground truth", func(t *testing.T) {
			reg := obs.NewRegistry()
			r := newPairRig(t, 1, 16, func(c *PairConfig) {
				c.Verify = false
				c.Injector = fault.NewIn(fault.Config{BitRate: 0.02, Seed: 3}, reg)
			}, nil)
			p := r.pairs[0]
			faulted := 0
			for a := uint64(0); a < 64; a++ {
				// fill checks the installed line against the store.
				if res := r.fill(p, a, cache.Shared); res.Faulted {
					faulted++
					if !res.Degraded || res.Wire <= 512 {
						t.Fatalf("faulted fill: degraded=%v wire=%d, want a raw resend on top of the attempt", res.Degraded, res.Wire)
					}
				}
			}
			x := &p.Xfer
			if faulted == 0 || x.FaultsInjected != uint64(faulted) || x.DecodeErrors != x.FaultsInjected || x.RawFallbacks != x.FaultsInjected {
				t.Fatalf("faults=%d counted %d/%d/%d", faulted, x.FaultsInjected, x.DecodeErrors, x.RawFallbacks)
			}
			r.checkSync()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestPairStepAllocs pins a warm pair's steps at zero allocations: an
// explicit-notice eviction and fill, the same with a dirty victim (its
// write-back compressed, sent and absorbed), and a silent fill over a
// Modified victim. Each step cycles 16 lines through one 8-way remote
// set, so every fill displaces a line; the lines fit the home cache and
// the store has them all.
//
// The fault-injected row runs the dirty step through the guarded path
// at a bit rate that damages most images, and the measured steps must
// include every outcome the receive path has: guard rejections, silent
// escapes (a damaged image whose CRC-8 aliases, decoded anyway) and the
// raw resends that recover both. AllocsPerRun reports whole
// allocations a step, so a cost on every guarded image or every resend
// shows; the error value an escape's failed decode builds, a few
// allocations once in the run, does not.
func TestPairStepAllocs(t *testing.T) {
	// outcomes tallies the measured steps' transfers.
	type outcomes struct{ rejected, escaped, resent int }
	step := func(silent, dirty bool, faults fault.Config, o *outcomes) (*Pair, func()) {
		r := newPairRig(t, 1, 16, func(c *PairConfig) {
			c.Silent = silent
			if faults.Enabled() {
				c.Injector = fault.New(faults)
			}
		}, nil)
		p, i := r.pairs[0], 0
		tally := func(x TransferResult) {
			switch {
			case x.Faulted && x.Decoded:
				o.escaped++
			case x.Faulted:
				o.rejected++
			}
			if x.Degraded {
				o.resent++
			}
		}
		return p, func() {
			a := uint64(i%16) * 32
			i++
			line, _, _, _ := p.EnsureHome(a, r.store, nil)
			way, victim, occupied := r.remote.Victim(a)
			if occupied && dirty {
				vl, id, _ := r.remote.Probe(victim)
				if vl.State == cache.Shared {
					p.Upgrade(id, vl.Data, victim)
					vl.State = cache.Modified
				}
				vl.Data[3] ^= 0x5a
			}
			if occupied && !silent {
				ev, _ := r.remote.Invalidate(victim)
				wb, _ := p.EvictRemote(ev)
				tally(wb)
			}
			tally(p.Fill(a, line.Data, cache.Shared, way).TransferResult)
		}
	}
	for _, tc := range []struct {
		name          string
		silent, dirty bool
		faults        fault.Config
	}{
		{"explicit evict+fill", false, false, fault.Config{}},
		{"explicit dirty write-back+fill", false, true, fault.Config{}},
		{"silent fill over a Modified victim", true, true, fault.Config{}},
		// About one damaged image in 256 aliases the CRC-8; seed 32's
		// measured steps hold one.
		{"fault-injected dirty write-back+fill", false, true, fault.Config{BitRate: 0.03, Seed: 32}},
	} {
		var o outcomes
		p, f := step(tc.silent, tc.dirty, tc.faults, &o)
		for range 64 {
			f() // warm: every line materialized, every buffer grown
		}
		o = outcomes{}
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s: %.2f allocations a step, want 0", tc.name, allocs)
		}
		// The steps did what they are named for: 165 fills, each one
		// displacing a line from the second lap on.
		if wb := p.Remote.Stats.Writebacks; tc.dirty != (wb >= 150) || (!tc.silent) != (p.Home.AckSeq >= 150) {
			t.Errorf("%s: %d write-backs, %d notices acknowledged", tc.name, wb, p.Home.AckSeq)
		}
		if faulted := tc.faults.Enabled(); faulted != (o.rejected > 0 && o.escaped > 0 && o.resent > 0) {
			t.Errorf("%s: measured steps had %d guard rejections, %d silent escapes, %d resends",
				tc.name, o.rejected, o.escaped, o.resent)
		}
	}
}

// TestCheckSyncDetects: the checker must fail when a tracked remote
// line stops matching its home copy, and when a remote hash-table
// entry outlives its line.
func TestCheckSyncDetects(t *testing.T) {
	r := newPairRig(t, 1, 16, nil, nil)
	p := r.pairs[0]
	for a := uint64(0); a < 8; a++ {
		r.fill(p, a, cache.Shared)
	}
	r.checkSync()
	line, _, _ := r.remote.Probe(3)
	line.Data[0] ^= 1
	if err := p.CheckSync(); err == nil || !strings.Contains(err.Error(), "differs") {
		t.Fatalf("scribbled remote copy: CheckSync = %v", err)
	}
	line.Data[0] ^= 1
	r.checkSync()
	// Drop a line behind the protocol's back: no notice, no scrub.
	r.remote.Invalidate(3)
	if err := p.CheckSync(); err == nil {
		t.Fatal("line dropped without a notice: CheckSync passed")
	}
}
