package topo

import (
	"math/bits"

	"cable/internal/obs"
)

// This file is the discrete-event core shared by the schedule pass
// (raw service times, records the per-link transfer sequences) and the
// replay pass (measured CABLE service times, records timing and flight
// windows). Determinism rules:
//
//   - Events pop in (time, seq) order: seq is a monotonically
//     increasing push counter, so the order is total and simultaneous
//     events pop in push order. The calendar queue below keeps exactly
//     that order. No map iteration, no randomness — event order is a
//     pure function of the config.
//   - Every server (one encoder per chip, one wire per directed link)
//     is FIFO: arrivals queue in event-pop order and are served in
//     queue order.
//
// Virtual time is in link cycles.

// Event kinds.
const (
	evInject   = iota // next arrival (id = chip in schedule mode)
	evArrive          // hop lands at a chip's encoder queue (id = chip)
	evEncDone         // chip encoder finishes a transfer (id = chip)
	evWireDone        // link wire finishes a transfer (id = link)
)

// refNone marks an idle server.
const refNone = ^uint64(0)

// pack/unpack a hop reference: message index << 8 | hop position.
// Routes are at most chips-1 hops, far under 256.
func packRef(msg int, hop int) uint64 { return uint64(msg)<<8 | uint64(hop) }
func unpackRef(ref uint64) (msg, hop int) {
	return int(ref >> 8), int(ref & 0xFF)
}

type event struct {
	at   uint64
	seq  uint64
	kind uint8
	id   int32
	ref  uint64
}

func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// calW is the calendar queue's window in virtual cycles, a power of two
// that covers the default config's direct delays: the 34-cycle raw
// wire, the ~70-cycle fault resend and the ≤23-cycle inject gap.
const calW = 256

// eventQueue is a calendar queue (Brown, CACM 31(10), 1988): one FIFO
// slot per virtual cycle of the window [now, now+calW), where now is
// the time of the last pop. A slot is an index-linked list over one
// recycled node slab, and a bitmap marks the occupied slots. Events at
// or beyond the window wait in the far heap and move into their slots
// the moment a pop advances the window over them, before any direct
// push can land there, so every slot holds its events in seq order and
// pops come out in exactly the heap's (time, seq) order. Pushes must
// not precede the last pop, and reset must run before first use.
type eventQueue struct {
	now        uint64
	n          int // events in the slots
	occ        [calW / 64]uint64
	head, tail [calW]int32
	slab       []qnode
	free       int32 // free-list head in slab, -1 when none
	far        eventHeap
}

type qnode struct {
	ev   event
	next int32
}

func (q *eventQueue) reset() {
	q.now, q.n, q.occ = 0, 0, [calW / 64]uint64{}
	q.slab, q.free, q.far = q.slab[:0], -1, q.far[:0]
}

func (q *eventQueue) empty() bool { return q.n == 0 && len(q.far) == 0 }

func (q *eventQueue) push(e event) {
	if e.at < q.now {
		panic("topo: event scheduled before the current time")
	}
	if e.at-q.now >= calW {
		q.far.push(e)
		return
	}
	q.insert(e)
}

// insert appends e to its slot's list.
func (q *eventQueue) insert(e event) {
	i := q.free
	if i >= 0 {
		q.free = q.slab[i].next
	} else {
		i = int32(len(q.slab))
		q.slab = append(q.slab, qnode{})
	}
	// Field by field: a whole-struct copy reloads the spilled argument
	// with wider moves than spilled it (see pop).
	nd := &q.slab[i]
	nd.ev.at, nd.ev.seq, nd.ev.kind, nd.ev.id, nd.ev.ref = e.at, e.seq, e.kind, e.id, e.ref
	nd.next = -1
	s := e.at & (calW - 1)
	if bit := uint64(1) << (s & 63); q.occ[s>>6]&bit == 0 {
		q.occ[s>>6] |= bit
		q.head[s] = i
	} else {
		q.slab[q.tail[s]].next = i
	}
	q.tail[s] = i
	q.n++
}

// advance moves the window to start at t and migrates the far events
// it now covers, in (time, seq) order.
func (q *eventQueue) advance(t uint64) {
	q.now = t
	for len(q.far) > 0 && q.far[0].at-t < calW {
		q.insert(q.far.pop())
	}
}

// pop removes the earliest event and returns it in place, valid until
// the next push; the queue must not be empty. Callers copy it out whole:
// returning a five-field struct by value goes through a stack temporary
// that is stored field by field and reloaded with wider moves, which
// stalls store forwarding.
func (q *eventQueue) pop() *event {
	if q.n == 0 {
		// Jump across the empty window to the far heap's earliest time.
		q.advance(q.far[0].at)
	}
	s := q.nextSlot()
	if t := q.now + (s-q.now)&(calW-1); t != q.now {
		q.advance(t)
	}
	i := q.head[s]
	nd := &q.slab[i]
	if nd.next < 0 {
		q.occ[s>>6] &^= 1 << (s & 63)
	} else {
		q.head[s] = nd.next
	}
	nd.next, q.free = q.free, i
	q.n--
	return &nd.ev
}

// nextSlot returns the first occupied slot at or after now's,
// circularly; at least one slot must be occupied.
func (q *eventQueue) nextSlot() uint64 {
	s := q.now & (calW - 1)
	w := s >> 6
	if m := q.occ[w] >> (s & 63); m != 0 {
		return s + uint64(bits.TrailingZeros64(m))
	}
	// The last probe wraps onto word w itself, whose bits at or above
	// s are clear by now.
	for k := uint64(1); k <= calW/64; k++ {
		wi := (w + k) & (calW/64 - 1)
		if m := q.occ[wi]; m != 0 {
			return wi<<6 + uint64(bits.TrailingZeros64(m))
		}
	}
	panic("topo: nextSlot on an empty window")
}

// eventHeap is a typed binary min-heap over (time, seq), the calendar
// queue's overflow for events beyond its window.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	e := q[n] // sifted down from the root into q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = e
	*h = q[:n]
	return top
}

// fifo is a ref queue that remembers each entry's arrival time (for
// queue-delay accounting). Amortized O(1); storage is compacted when
// the dead prefix dominates.
type fifo struct {
	refs []uint64
	ats  []uint64
	head int
}

func (q *fifo) empty() bool { return q.head == len(q.refs) }

func (q *fifo) clear() { q.refs, q.ats, q.head = q.refs[:0], q.ats[:0], 0 }

func (q *fifo) push(ref, at uint64) {
	if q.head > 1024 && q.head*2 > len(q.refs) {
		n := copy(q.refs, q.refs[q.head:])
		copy(q.ats, q.ats[q.head:])
		q.refs = q.refs[:n]
		q.ats = q.ats[:n]
		q.head = 0
	}
	q.refs = append(q.refs, ref)
	q.ats = append(q.ats, at)
}

func (q *fifo) pop() (ref, at uint64) {
	ref, at = q.refs[q.head], q.ats[q.head]
	q.head++
	return ref, at
}

// schedule is the pass-1 product: the frozen per-link transfer
// sequences plus the flattened message/hop tables that let the replay
// pass re-drive the identical traffic without generators or routing.
type schedule struct {
	// linkAddrs[L][k] is the line address of link L's k-th transfer.
	linkAddrs [][]uint64
	// wireBits[L][k] is the measured on-wire size in bits (filled by
	// the encode pass; includes raw-resend recovery bits).
	wireBits [][]int32
	// recToggles/recFlags are per-transfer recording sidecars,
	// allocated only when a flight recorder is attached. Flag bit 0 =
	// injector corrupted the image, bit 1 = decode degraded to a raw
	// resend.
	recToggles [][]uint32
	recFlags   [][]uint8

	// Flattened messages: message m's hops occupy
	// hopLink/hopIdx[msgOff[m]:msgOff[m+1]]. hopIdx[j] is the hop's
	// entry index on its link (assigned in pass-1 wire-arrival order).
	msgAddr   []uint64
	msgSrc    []int32
	msgInject []uint64
	msgOff    []int32
	hopLink   []int32
	hopIdx    []int32

	// accesses/local count generator draws and same-chip hits.
	accesses uint64
	local    uint64
}

const (
	flagFault   = 1 << 0
	flagDegrade = 1 << 1
)

// engine is the per-run DES state shared by both passes.
type engine struct {
	cfg   Config
	topo  *Topology
	sched *schedule

	// rawCycles is the raw-baseline wire occupancy per transfer: a
	// full uncompressed line plus a fixed 32-bit header allowance.
	rawCycles uint64

	q       eventQueue
	seq     uint64
	encCur  []uint64 // per chip: ref in the encoder, refNone if idle
	encQ    []fifo
	wireCur []uint64 // per link: ref on the wire, refNone if idle
	wireQ   []fifo
	wireSvc []uint64 // per link: service length of the ref on the wire
}

// passStats is one DES pass's timing outcome.
type passStats struct {
	makespan  uint64
	busy      []uint64 // per link: cycles the wire was occupied
	queueWait []uint64 // per link: total wire-queue waiting cycles
}

func newEngine(cfg Config, t *Topology) *engine {
	e := &engine{
		cfg: cfg, topo: t,
		sched:   &schedule{linkAddrs: make([][]uint64, len(t.links))},
		encCur:  make([]uint64, cfg.Chips),
		encQ:    make([]fifo, cfg.Chips),
		wireCur: make([]uint64, len(t.links)),
		wireQ:   make([]fifo, len(t.links)),
		wireSvc: make([]uint64, len(t.links)),
	}
	w := cfg.Link.WidthBits
	e.rawCycles = uint64((64*8 + rawHeaderBits + w - 1) / w)
	return e
}

// rawHeaderBits is the fixed per-transfer framing allowance charged to
// the raw baseline (address/route/ack fields a real message carries).
const rawHeaderBits = 32

// The topology's fixed timing and interleave, in link cycles and lines.
const (
	// encodeCycles is each chip's encoder occupancy per transfer: all of
	// a chip's outgoing links share one encoder (the shared-home
	// contention point), so transfers serialize through it. It is the
	// pipeline's initiation interval, not its latency — latency cost is
	// the timing simulator's subject (fig17). Every hop re-encodes
	// through the arrival chip's shared encoder, so a longer interval
	// would bottleneck raw and CABLE identically and hide the wire
	// relief this study measures.
	encodeCycles = 4
	// hopCycles is the router forward latency between a link's delivery
	// and the arrival at the next chip's encoder.
	hopCycles = 4
	// pageLines is the home-interleave granularity (4 KB pages = 64
	// lines): line addr a is homed on chip (a/pageLines)%Chips.
	pageLines = 64
)

func (e *engine) push(at uint64, kind uint8, id int32, ref uint64) {
	e.seq++
	e.q.push(event{at: at, seq: e.seq, kind: kind, id: id, ref: ref})
}

// reset clears the server and queue state between passes, keeping the
// storage the previous pass grew.
func (e *engine) reset() {
	e.q.reset()
	e.seq = 0
	for i := range e.encCur {
		e.encCur[i] = refNone
		e.encQ[i].clear()
	}
	for i := range e.wireCur {
		e.wireCur[i] = refNone
		e.wireQ[i].clear()
		e.wireSvc[i] = 0
	}
}

// hopOf returns message m's hop-h flattened index.
func (s *schedule) hopOf(m, h int) int { return int(s.msgOff[m]) + h }

// routeLen returns message m's hop count.
func (s *schedule) routeLen(m int) int { return int(s.msgOff[m+1] - s.msgOff[m]) }

// simulate runs one DES pass. In schedule mode (record=true) it drives
// the per-chip injection feed (live arrival processes, a workload mix,
// or recorded captures), records every message and assigns per-link
// entry indices in wire-arrival order, and serves every wire transfer
// at the raw-baseline cost. In replay mode it re-injects the recorded
// messages at their recorded times and serves each transfer at its
// measured compressed cost, optionally feeding per-link flight tracks
// at wire-completion virtual times.
func (e *engine) simulate(record bool, feed injectFeed, rec *obs.Recorder, tracks []*obs.Track) (passStats, error) {
	e.reset()
	s := e.sched
	ps := passStats{
		busy:      make([]uint64, len(e.topo.links)),
		queueWait: make([]uint64, len(e.topo.links)),
	}

	// svc returns the wire occupancy of ref's current hop.
	w := uint64(e.cfg.Link.WidthBits)
	svc := func(ref uint64) uint64 {
		if record {
			return e.rawCycles
		}
		m, h := unpackRef(ref)
		L := s.hopLink[s.hopOf(m, h)]
		bits := uint64(s.wireBits[L][s.hopIdx[s.hopOf(m, h)]])
		cyc := (bits + w - 1) / w
		if cyc == 0 {
			cyc = 1
		}
		return cyc
	}

	startWire := func(L int32, ref, at uint64) {
		c := svc(ref)
		e.wireCur[L] = ref
		e.wireSvc[L] = c
		ps.busy[L] += c
		e.push(at+c, evWireDone, L, 0)
	}
	enqueueWire := func(L int32, ref, at uint64) {
		if record {
			// Assign the hop its frozen per-link entry index: FIFO
			// wire queues serve in arrival order, so arrival order IS
			// the order the link's CABLE pipeline sees transfers.
			m, h := unpackRef(ref)
			k := int32(len(s.linkAddrs[L]))
			s.linkAddrs[L] = append(s.linkAddrs[L], s.msgAddr[m])
			s.hopIdx[s.hopOf(m, h)] = k
		}
		if e.wireCur[L] == refNone {
			startWire(L, ref, at)
		} else {
			e.wireQ[L].push(ref, at)
		}
	}
	enqueueEnc := func(c int32, ref, at uint64) {
		if e.encCur[c] == refNone {
			e.encCur[c] = ref
			e.push(at+encodeCycles, evEncDone, c, 0)
		} else {
			e.encQ[c].push(ref, at)
		}
	}

	plannedHops := 0
	stopInject := false
	// replayNext walks the recorded messages in creation order (which
	// is inject-time order — pass-1 pops events time-sorted).
	replayNext := 0

	// Seed the queue.
	if record {
		for c := 0; c < e.cfg.Chips; c++ {
			if at, ok := feed.firstAt(int32(c)); ok {
				e.push(at, evInject, int32(c), 0)
			}
		}
	} else if len(s.msgAddr) > 0 {
		e.push(s.msgInject[0], evInject, -1, 0)
	}

	var routeBuf []int32
	for !e.q.empty() {
		ev := *e.q.pop()
		t := ev.at
		if t > ps.makespan {
			ps.makespan = t
		}
		switch ev.kind {
		case evInject:
			if record {
				c := ev.id
				s.accesses++
				a, nextAt, more, ferr := feed.next(c, t)
				if ferr != nil {
					return ps, ferr
				}
				dst := int32((a.LineAddr / pageLines) % uint64(e.cfg.Chips))
				if dst == c {
					s.local++
				} else {
					routeBuf = e.topo.route(int(c), int(dst), routeBuf[:0])
					m := len(s.msgAddr)
					s.msgAddr = append(s.msgAddr, a.LineAddr)
					s.msgSrc = append(s.msgSrc, c)
					s.msgInject = append(s.msgInject, t)
					if len(s.msgOff) == 0 {
						s.msgOff = append(s.msgOff, 0)
					}
					s.hopLink = append(s.hopLink, routeBuf...)
					s.hopIdx = append(s.hopIdx, make([]int32, len(routeBuf))...)
					s.msgOff = append(s.msgOff, int32(len(s.hopLink)))
					plannedHops += len(routeBuf)
					enqueueEnc(c, packRef(m, 0), t)
					if plannedHops >= e.cfg.Transfers && feed.hopTarget() {
						stopInject = true
					}
				}
				if more && !stopInject {
					e.push(nextAt, evInject, c, 0)
				}
			} else {
				m := replayNext
				enqueueEnc(s.msgSrc[m], packRef(m, 0), t)
				replayNext++
				if replayNext < len(s.msgAddr) {
					e.push(s.msgInject[replayNext], evInject, -1, 0)
				}
			}

		case evArrive:
			enqueueEnc(ev.id, ev.ref, t)

		case evEncDone:
			c := ev.id
			ref := e.encCur[c]
			if !e.encQ[c].empty() {
				next, _ := e.encQ[c].pop()
				e.encCur[c] = next
				e.push(t+encodeCycles, evEncDone, c, 0)
			} else {
				e.encCur[c] = refNone
			}
			m, h := unpackRef(ref)
			enqueueWire(s.hopLink[s.hopOf(m, h)], ref, t)

		case evWireDone:
			L := ev.id
			ref := e.wireCur[L]
			if !e.wireQ[L].empty() {
				next, arrived := e.wireQ[L].pop()
				ps.queueWait[L] += t - arrived
				startWire(L, next, t)
			} else {
				e.wireCur[L] = refNone
			}
			m, h := unpackRef(ref)
			if rec != nil {
				k := s.hopIdx[s.hopOf(m, h)]
				bits := int(s.wireBits[L][k])
				fl := s.recFlags[L][k]
				if fl&flagFault != 0 {
					rec.FaultAt(tracks[L], t)
				}
				if fl&flagDegrade != 0 {
					rec.DegradeAt(tracks[L], t)
				}
				rec.TransferAt(tracks[L], t, 64*8, bits, uint64(s.recToggles[L][k]))
			}
			if h+1 < s.routeLen(m) {
				e.push(t+hopCycles, evArrive, e.topo.links[L].dst, packRef(m, h+1))
			}
		}
	}
	if rec != nil {
		rec.AdvanceTo(ps.makespan)
	}
	return ps, nil
}
