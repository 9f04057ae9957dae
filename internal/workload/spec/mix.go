// The mix engine: compiles a Workload into a deterministic merged
// access stream. Each client owns a private arrival sampler and one
// stream generator per phase; emissions merge on an exact uint64
// virtual clock with client index as the tie-break. Because each
// emission carries its client's integer inter-arrival gap, a set of
// per-client captures (RecordClients) holds everything needed to
// rebuild the clocks — so a replay mix reproduces the identical merge
// order, and replay-vs-live byte identity holds by construction.
package spec

import (
	"errors"
	"fmt"
	"io"

	"cable/internal/obs"
	"cable/internal/trace"
	"cable/internal/workload"
)

// ErrExhausted reports a replay mix asked for more emissions than its
// captures hold.
var ErrExhausted = errors.New("spec: replay mix exhausted")

// ErrReplayMismatch reports captures that do not match the workload
// they are replayed into.
var ErrReplayMismatch = errors.New("spec: replay captures do not match workload")

// MixOptions parameterize mix construction.
type MixOptions struct {
	// Variant decorrelates the stream generators of independent mixes
	// of the same workload (the topology driver passes the chip
	// index). Content is variant-independent: it remains a pure
	// function of the absolute address.
	Variant uint64
	// Budget is the run's total access budget — the denominator for
	// phase-change boundaries. Live mixes require it; replay mixes
	// ignore it (recorded addresses already encode their phase).
	Budget uint64
	// Registry receives the lines-materialized counter (nil: process default).
	Registry *obs.Registry
	// Replay, when set, supplies one capture per client (in client
	// order, as written by RecordClients); the mix then replays the
	// recorded streams instead of sampling live.
	Replay []*trace.Trace
}

// Emission is one access of the merged stream.
type Emission struct {
	// Client is the index of the emitting client.
	Client int
	// At is the virtual arrival time (cumulative gaps).
	At uint64
	// Access is the emitted access; its Gap is the emitting client's
	// inter-arrival gap, not the merged stream's delta.
	Access workload.Access
}

type mixClient struct {
	id     string
	base   uint64
	bounds []uint64 // per-phase start counts; bounds[0] == 0
	gens   []*workload.Generator
	samp   *sampler

	replay     []workload.Access
	replayBase uint64
	rpos       int

	clock uint64 // arrival time of the next emission
	gap   uint64 // the gap that advanced clock there
	count uint64
	done  bool
}

// Mix is a compiled workload: a deterministic merged access stream
// plus the content table for its address space.
type Mix struct {
	w       *Workload
	clients []*mixClient
	content *ContentTable
	emitted uint64
}

// NewMix compiles a workload into a mix. With o.Replay set, the mix
// replays the captures; otherwise it samples arrivals live against
// o.Budget.
func NewMix(w *Workload, o MixOptions) (*Mix, error) {
	if o.Replay != nil && len(o.Replay) != len(w.Clients) {
		return nil, fmt.Errorf("%w: %d captures for %d clients", ErrReplayMismatch, len(o.Replay), len(w.Clients))
	}
	if o.Replay == nil && o.Budget == 0 {
		return nil, fmt.Errorf("spec: live mix needs a positive access budget")
	}
	content, err := NewContentTable(w, o.Registry)
	if err != nil {
		return nil, err
	}
	m := &Mix{w: w, content: content, clients: make([]*mixClient, len(w.Clients))}
	for i := range w.Clients {
		c := &mixClient{
			id:     w.Clients[i].ID,
			base:   ClientBase(i),
			bounds: phaseBounds(w, i, o.Budget),
		}
		m.clients[i] = c
		if o.Replay != nil {
			t := o.Replay[i]
			if t.Header.Benchmark != c.id || int(t.Header.Instance) != i {
				return nil, fmt.Errorf("%w: capture %d is %q/%d, want %q/%d",
					ErrReplayMismatch, i, t.Header.Benchmark, t.Header.Instance, c.id, i)
			}
			c.replay = t.Accesses
			c.replayBase = t.Header.AddrBase
			if len(c.replay) == 0 {
				c.done = true
				continue
			}
			c.gap = uint64(c.replay[0].Gap)
			c.clock = c.gap
			continue
		}
		// Stream generators are variant-decorated so independent mixes
		// (chips) draw decorrelated address sequences; the content
		// generators in the ContentTable stay at instance == client.
		streamInstance := i + int(o.Variant)*MaxClients
		c.gens = make([]*workload.Generator, len(w.resolved[i]))
		for p, s := range w.resolved[i] {
			c.gens[p] = workload.NewFromSpecIn(s, streamInstance, PhaseBase(i, p), o.Registry)
		}
		c.samp = newSampler(w.Clients[i].Arrival, mixMean(w, i),
			splitmix64(w.Seed^(uint64(i)+1)*0x517CC1B727220A95^o.Variant*0x2545F4914F6CDD1D))
		c.gap = c.samp.next()
		c.clock = c.gap
	}
	return m, nil
}

// mixMean is client i's mean inter-arrival gap: the aggregate mean
// over its normalized rate share.
func mixMean(w *Workload, i int) float64 {
	return float64(w.MeanGap) / w.rates[i]
}

// phaseBounds computes the access counts at which client i's phases
// begin, against its share of the run budget.
func phaseBounds(w *Workload, i int, budget uint64) []uint64 {
	phases := w.resolved[i]
	bounds := make([]uint64, len(phases))
	clientBudget := float64(budget) * w.rates[i]
	for p := 1; p < len(phases); p++ {
		bounds[p] = uint64(w.Clients[i].Phases[p-1].At * clientBudget)
	}
	return bounds
}

// phase returns the client's current phase index for its next access.
func (c *mixClient) phase() int {
	p := len(c.bounds) - 1
	for p > 0 && c.count < c.bounds[p] {
		p--
	}
	return p
}

// ClientIDs returns the client identifiers in emission-index order.
func (m *Mix) ClientIDs() []string { return m.w.ClientIDs() }

// Emitted returns how many accesses the mix has produced.
func (m *Mix) Emitted() uint64 { return m.emitted }

// LineData materializes line contents anywhere in the mix's address
// space (content generators at instance == client index, so contents
// are identical across variants and across live/replay).
func (m *Mix) LineData(lineAddr uint64) []byte { return m.content.LineData(lineAddr) }

// Next produces the next access of the merged stream.
func (m *Mix) Next() (Emission, error) {
	best := -1
	for i, c := range m.clients {
		if c.done {
			continue
		}
		if best < 0 || c.clock < m.clients[best].clock {
			best = i
		}
	}
	if best < 0 {
		return Emission{}, fmt.Errorf("%w after %d accesses", ErrExhausted, m.emitted)
	}
	c := m.clients[best]
	var a workload.Access
	if c.replay != nil {
		a = c.replay[c.rpos]
		a.LineAddr = a.LineAddr - c.replayBase + c.base
		c.rpos++
	} else {
		a = c.gens[c.phase()].Next()
		a.Gap = int(c.gap)
	}
	e := Emission{Client: best, At: c.clock, Access: a}
	c.count++
	m.emitted++
	switch {
	case c.replay != nil && c.rpos >= len(c.replay):
		c.done = true
	case c.replay != nil:
		c.gap = uint64(c.replay[c.rpos].Gap)
		c.clock += c.gap
	default:
		c.gap = c.samp.next()
		c.clock += c.gap
	}
	return e, nil
}

// RecordClients runs a live mix for n emissions and streams one trace
// per client through create (called with the client id, in client
// order). The captures carry per-client arrival gaps, so replaying
// them through NewMix reconstructs the identical merged stream.
func RecordClients(w *Workload, n int, create func(id string) (io.WriteCloser, error)) error {
	m, err := NewMix(w, MixOptions{Budget: uint64(n), Registry: obs.NewRegistry()})
	if err != nil {
		return err
	}
	perClient := make([][]workload.Access, len(m.clients))
	for i := 0; i < n; i++ {
		e, err := m.Next()
		if err != nil {
			return err
		}
		perClient[e.Client] = append(perClient[e.Client], e.Access)
	}
	for i, c := range m.clients {
		wc, err := create(c.id)
		if err != nil {
			return err
		}
		tw, err := trace.NewWriter(wc, trace.Header{
			Benchmark: c.id,
			Instance:  uint32(i),
			AddrBase:  ClientBase(i),
			Records:   uint64(len(perClient[i])),
		})
		if err != nil {
			wc.Close()
			return err
		}
		for _, a := range perClient[i] {
			if err := tw.Write(a); err != nil {
				wc.Close()
				return err
			}
		}
		if err := tw.Close(); err != nil {
			wc.Close()
			return err
		}
		if err := wc.Close(); err != nil {
			return err
		}
	}
	return nil
}

// ContentTable dispatches LineData over a workload's address space:
// client index from the high address bits, phase from the subrange
// bits, then the matching content generator (instance == client, so
// every consumer — any chip, any worker, live or replay — derives
// identical bytes). Generators materialize lazily on first touch.
// A ContentTable is not safe for concurrent use; parallel consumers
// build one each, as the topology encode workers do.
type ContentTable struct {
	w    *Workload
	gens [][]*workload.Generator
	reg  *obs.Registry
}

// NewContentTable builds the dispatch table for a workload, counting
// materialized lines in reg (nil: process default).
func NewContentTable(w *Workload, reg *obs.Registry) (*ContentTable, error) {
	if w == nil || w.resolved == nil {
		return nil, fmt.Errorf("spec: workload not compiled (use Parse or Load)")
	}
	gens := make([][]*workload.Generator, len(w.Clients))
	for i := range gens {
		gens[i] = make([]*workload.Generator, len(w.resolved[i]))
	}
	return &ContentTable{w: w, gens: gens, reg: reg}, nil
}

// LineData materializes the contents of lineAddr.
func (t *ContentTable) LineData(lineAddr uint64) []byte {
	ci := int(lineAddr >> ClientShift)
	rel := lineAddr & (1<<ClientShift - 1)
	pi := int(rel >> phaseShift)
	if ci >= len(t.gens) || pi >= len(t.gens[ci]) {
		panic(fmt.Sprintf("spec: address %#x outside workload %q (client %d phase %d)",
			lineAddr, t.w.Name, ci, pi))
	}
	g := t.gens[ci][pi]
	if g == nil {
		g = workload.NewFromSpecIn(t.w.resolved[ci][pi], ci, PhaseBase(ci, pi), t.reg)
		t.gens[ci][pi] = g
	}
	return g.LineData(lineAddr)
}
