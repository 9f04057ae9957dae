package sim

import (
	"bytes"
	"fmt"

	"cable/internal/bits"
	"cable/internal/cache"
	"cable/internal/core"
	"cable/internal/fault"
	"cable/internal/link"
	"cable/internal/mem"
	"cable/internal/obs"
)

// PairConfig wires one Pair. The driver builds Link and Injector: it
// decides what they are shared with (RunMultiChip runs one injector
// across all its pairs) and where their counters land.
type PairConfig struct {
	Cable    core.Config // both ends; its Metrics scopes their counters
	Link     *link.Link
	Injector *fault.Injector
	Verify   bool // panic when a clean transfer fails to decode bit-exact
	// Silent selects the §IV-B protocol: no eviction notices, the home
	// learns of displacements from the fills' replacement-way info.
	Silent bool
	// WayMap, when non-nil, replaces the home end's private WMT — a
	// SuperWMT view shared with the other pairs of a chip (§IV-D).
	WayMap core.WayMap
	// Recorder, when non-nil, receives both ends' and the transfer's
	// events on the track named Track.
	Recorder *obs.Recorder
	Track    string
	// degrade: see LinkTransfer.degrade.
	degrade *degradeCounters
}

// Pair is one CABLE link: a home cache and a remote cache, the two
// protocol ends that keep their structures synchronized, and the
// LinkTransfer that carries payloads between them. It is the only
// place the two-ended step sequences of §III-F, §IV-B and §IV-C are
// spelled out; Chip, RunMultiChip, RunNonInclusive and the topology
// engine are policies over its steps — which line goes where, in what
// order, and what gets counted. A Pair serves one goroutine.
//
// A bare Pair{HomeCache, RemoteCache} has no ends: EnsureHome,
// EvictRemote and Release then only handle the caches. Chip meters a
// baseline scheme that way.
type Pair struct {
	// HomeCache and RemoteCache are the caches the pair was handed. The
	// remote cache may serve several pairs (one per home node).
	HomeCache, RemoteCache *cache.Cache
	Home                   *core.HomeEnd
	Remote                 *core.RemoteEnd
	Xfer                   LinkTransfer

	silent bool
	// wbRefs: write-backs may use references (false for non-inclusive
	// homes and pooled way-maps, §IV-C).
	wbRefs bool
	fills  uint64 // counted only while syncCheckEvery is on
	victim []byte // FillResult.Victim.Data under the silent protocol
}

// NewPair builds both ends over the given caches and wires the transfer
// and the recorder.
func NewPair(home, remote *cache.Cache, cfg PairConfig) (*Pair, error) {
	he, err := core.NewHomeEndWithWayMap(cfg.Cable, home, remote, cfg.WayMap)
	if err != nil {
		return nil, err
	}
	re, err := core.NewRemoteEnd(cfg.Cable, remote)
	if err != nil {
		return nil, err
	}
	p := &Pair{
		HomeCache: home, RemoteCache: remote, Home: he, Remote: re,
		Xfer: LinkTransfer{
			Link: cfg.Link, Injector: cfg.Injector,
			IdxBits: remote.IndexBits(), WayBits: remote.WayBits(),
			LIDBits: he.RemoteLIDBits(), Verify: cfg.Verify, degrade: cfg.degrade,
		},
		silent: cfg.Silent, wbRefs: cfg.Cable.WritebackCompression,
	}
	if rec := cfg.Recorder; rec != nil {
		p.Xfer.Recorder, p.Xfer.Track = rec, rec.Track(cfg.Track)
		he.SetRecorder(rec, p.Xfer.Track)
		re.SetRecorder(rec, p.Xfer.Track)
	}
	return p, nil
}

// Release recycles both ends' tables and both caches into their pools.
// Releasing a cache twice is harmless, so pairs that share a remote
// cache are released one after the other once all are done.
func (p *Pair) Release() {
	if p.Home != nil {
		p.Home.Release()
		p.Remote.Release()
	}
	p.HomeCache.Release()
	p.RemoteCache.Release()
}

// FillResult is what one Fill did.
type FillResult struct {
	TransferResult
	Latency core.FillLatency
	// Victim and VictimWB report the line the install displaced under
	// the silent protocol, for the driver's accounting (Victim.Data is
	// nil when the way was free or notices are explicit, and otherwise a
	// buffer the pair reuses: valid until its next Fill).
	Victim   cache.Eviction
	VictimWB TransferResult
}

// Fill moves line addr, whose bytes are data (the home copy EnsureHome
// returned), into way of the remote cache: encode against the home
// structures (which synchronizes them for this transfer) → send →
// install → enter the remote hash table → release the eviction-buffer
// entries the response acknowledged.
//
// With explicit notices the driver has already evicted the way's
// occupant. Under the silent protocol the occupant stays resident until
// here — it may serve as a reference for this very fill — and is
// retired after the decode, immediately before the install.
func (p *Pair) Fill(addr uint64, data []byte, state cache.State, way int) FillResult {
	pay, lat, err := p.Home.EncodeFillData(addr, data, state, way)
	if err != nil {
		// Encode runs against the sender's own structures; failure is a
		// simulator invariant violation, not a link fault: always fatal.
		panic(fmt.Sprintf("sim: encode fill %#x: %v", addr, err))
	}
	decode := func(br *bits.Reader) ([]byte, error) { return p.Remote.DecodeFillFrom(br, pay.AckSeq) }
	res := FillResult{TransferResult: p.Xfer.Send(pay, decode, data, addr), Latency: lat}
	id := cache.LineID{Index: p.RemoteCache.IndexOf(addr), Way: way}
	if p.silent {
		if victim, ok := p.RemoteCache.LineAddrOf(id); ok {
			res.Victim, _ = p.RemoteCache.Invalidate(victim)
			// The install below overwrites the slot buffer Data aliases.
			p.victim = append(p.victim[:0], res.Victim.Data...)
			res.Victim.Data = p.victim
			var absorbed bool
			res.VictimWB, absorbed = p.EvictRemote(res.Victim)
			if res.Victim.State == cache.Modified && !absorbed {
				// Silent evictions are defined for 1-1 inclusive homes.
				panic(fmt.Sprintf("sim: silent eviction of %#x, absent from home %q", victim, p.HomeCache.Config().Name))
			}
		}
	}
	p.RemoteCache.InsertAt(addr, res.Data, state, way)
	p.Remote.OnFillInstalled(id, res.Data, state)
	p.Remote.OnAck(pay.AckSeq)
	if syncCheckEvery != 0 {
		if p.fills++; p.fills%syncCheckEvery == 0 {
			if err := p.CheckSync(); err != nil {
				panic(err)
			}
		}
	}
	return res
}

// EvictRemote retires ev, a line the remote cache just gave up. A dirty
// line is write-back compressed and sent home, where the home cache's
// copy absorbs it; absorbed reports whether the home held one (always,
// for an inclusive home — the driver treats false as a violation; a
// non-inclusive driver writes the line to memory instead). Then the
// eviction is scrubbed from both ends: an explicit notice carries the
// eviction sequence the home will acknowledge, a silent one scrubs the
// remote side only. A pair without ends only absorbs the line.
func (p *Pair) EvictRemote(ev cache.Eviction) (wb TransferResult, absorbed bool) {
	if ev.State == cache.Modified {
		if p.Remote != nil {
			pay := p.Remote.EncodeWriteback(ev.Data)
			if !p.wbRefs && len(pay.Refs) != 0 {
				// Sender-side protocol invariant (§IV-C), not a link fault.
				panic("sim: write-back used references with write-back compression off")
			}
			wb = p.Xfer.Send(pay, p.Home.DecodeWritebackFrom, ev.Data, ev.LineAddr)
		}
		// The home copy takes what the decode reconstructed, or the raw
		// retry delivered: the ground truth either way.
		if hl, _, ok := p.HomeCache.Probe(ev.LineAddr); ok {
			copy(hl.Data, ev.Data)
			hl.State = cache.Modified
			absorbed = true
		}
	}
	switch {
	case p.Remote == nil:
	case p.silent:
		p.Remote.OnSilentEviction(ev.ID, ev.Data)
	default:
		p.Home.OnRemoteEviction(ev.ID, p.Remote.OnEviction(ev.ID, ev.Data))
	}
	return wb, absorbed
}

// Upgrade processes a write to the Shared line at id: it stops serving
// as a reference on both sides (§III-F). data is the line before the
// store lands.
func (p *Pair) Upgrade(id cache.LineID, data []byte, addr uint64) {
	p.Remote.OnUpgrade(id, data)
	p.Home.OnUpgrade(addr)
}

// EnsureHome returns the home cache's copy of addr; hit reports that it
// was already there. Otherwise the line is read from store into the
// replacement way, whose occupant goes first: an inclusive driver's
// backInvalidate forces the remote copy out through its own eviction
// policy (nil for a non-inclusive home, whose evicted lines just stop
// serving as references), the home end forgets the line, and a Modified
// occupant is written to store. A pair without ends moves the lines the
// same way.
func (p *Pair) EnsureHome(addr uint64, store *mem.Store, backInvalidate func(victim uint64)) (line *cache.Line, hit, evicted, wroteBack bool) {
	if line, _, hit = p.HomeCache.Probe(addr); hit {
		return line, true, false, false
	}
	data := store.Read(addr)
	way, victim, evicted := p.HomeCache.Victim(addr)
	if evicted {
		if backInvalidate != nil {
			backInvalidate(victim)
		}
		if p.Home != nil {
			p.Home.OnHomeEviction(victim)
		}
		if vl, _, _ := p.HomeCache.Probe(victim); vl.State == cache.Modified {
			store.Write(victim, vl.Data)
			wroteBack = true
		}
	}
	p.HomeCache.InsertAt(addr, data, cache.Shared, way)
	line, _, _ = p.HomeCache.Probe(addr)
	return line, false, evicted, wroteBack
}

// syncCheckEvery, when non-zero, makes every pair run CheckSync after
// each syncCheckEvery-th fill and panic on a violation.
var syncCheckEvery uint64

// CheckSyncEvery turns the periodic CheckSync on for every pair built
// afterwards (0 turns it off) and returns the previous setting. The
// soak tests set it; it must not change while a simulation runs.
func CheckSyncEvery(n uint64) (prev uint64) {
	prev, syncCheckEvery = syncCheckEvery, n
	return prev
}

// CheckSync verifies the synchronization invariant the protocol exists
// to maintain, between steps: every way-map entry names a remote slot
// holding a line byte-equal to the home line it points at (so a
// reference the home picks is one the remote can resolve), and every
// remote hash-table entry names a resident Shared line. It reads the
// caches without touching their statistics or replacement state.
func (p *Pair) CheckSync() error {
	at := func(c *cache.Cache, id cache.LineID) *cache.Line {
		if addr, ok := c.LineAddrOf(id); ok {
			l, _, _ := c.Probe(addr)
			return l
		}
		return nil
	}
	var err error
	p.Home.WMT().ForEach(func(remoteID, homeID cache.LineID) {
		rl, hl := at(p.RemoteCache, remoteID), at(p.HomeCache, homeID)
		switch {
		case err != nil:
		case rl == nil:
			err = fmt.Errorf("sim: way-map entry %v→%v: remote slot is empty", homeID, remoteID)
		case hl == nil:
			err = fmt.Errorf("sim: way-map entry %v→%v: home slot is empty", homeID, remoteID)
		case !bytes.Equal(rl.Data, hl.Data):
			err = fmt.Errorf("sim: way-map entry %v→%v: remote copy differs from home copy", homeID, remoteID)
		}
	})
	p.Remote.HashTable().ForEach(func(id cache.LineID) {
		if l := at(p.RemoteCache, id); err == nil && (l == nil || l.State != cache.Shared) {
			err = fmt.Errorf("sim: remote hash-table entry %v names no resident Shared line", id)
		}
	})
	return err
}
