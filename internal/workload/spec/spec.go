// Package spec is the declarative workload layer: a JSON DSL
// describing multi-client traffic mixes — per-client rate fractions,
// seeded stochastic arrival processes, content models drawn from the
// 29 synthetic benchmarks (with per-axis overrides), and phase changes
// over virtual time — compiled into deterministic access sources any
// driver can consume, live or replayed from recorded captures.
//
// Address layout: client i owns the line-address range [i<<32,
// (i+1)<<32); phase p of a client shifts its working set to the
// disjoint subrange starting at (i<<32)+(p<<26). Content therefore
// stays a pure function of the absolute line address — the invariant
// the parallel topology encode pass and the cell memo depend on —
// while the access stream migrates between working sets at phase
// boundaries.
package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"cable/internal/workload"
)

// ErrInvalid is wrapped by every spec parse or validation failure, so
// callers (and the fuzz harness) can separate malformed input from
// I/O errors with errors.Is.
var ErrInvalid = errors.New("workload spec invalid")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("spec: "+format+": %w", append(args, ErrInvalid)...)
}

// Address-space carving (line addresses).
const (
	// ClientShift positions each client's address space: client i
	// owns [i<<ClientShift, (i+1)<<ClientShift).
	ClientShift = 32
	// phaseShift positions phase subspaces inside a client's range.
	phaseShift = 26

	// MaxClients and MaxPhases bound the carving: 64 clients × 64
	// subranges of 1<<26 lines each.
	MaxClients = 64
	MaxPhases  = 16

	// maxWorkingSet keeps every working set inside its phase subrange.
	maxWorkingSet = 1 << 24
)

// ClientBase returns the base line address of client i's space.
func ClientBase(i int) uint64 { return uint64(i) << ClientShift }

// PhaseBase returns the base line address of phase p of client i.
func PhaseBase(i, p int) uint64 { return ClientBase(i) + uint64(p)<<phaseShift }

// Workload is the root of the DSL: a named, seeded multi-client mix.
type Workload struct {
	// Version pins the DSL revision; must be 1.
	Version int `json:"version"`
	// Name labels the scenario in tables and digests.
	Name string `json:"name"`
	// Seed drives every arrival sampler; same seed, same mix.
	Seed uint64 `json:"seed"`
	// MeanGap is the aggregate mean inter-arrival gap of the merged
	// stream (instruction gaps on the memlink driver, link cycles on
	// the topology driver). Defaults to 100.
	MeanGap int `json:"mean_gap,omitempty"`
	// Clients are the traffic sources of the mix.
	Clients []Client `json:"clients"`

	// Compiled state, populated by validation.
	rates    []float64         // normalized rate fractions
	resolved [][]workload.Spec // per client, per phase
}

// Client is one traffic source.
type Client struct {
	// ID names the client; unique within the workload.
	ID string `json:"id"`
	// RateFraction is the client's share of aggregate traffic; the
	// fractions are normalized over the mix, so they need not sum to
	// 1. Defaults to an equal share when every client omits it.
	RateFraction float64 `json:"rate_fraction,omitempty"`
	// Arrival selects the inter-arrival process.
	Arrival Arrival `json:"arrival"`
	// Content selects the line-content and access-pattern model.
	Content Content `json:"content"`
	// Phases switch the client to new content/working sets as the run
	// progresses; the initial phase is the top-level Content.
	Phases []PhaseChange `json:"phases,omitempty"`
}

// Arrival is a seeded stochastic inter-arrival process.
type Arrival struct {
	// Process is one of "poisson", "gamma", "weibull", "fixed".
	Process string `json:"process"`
	// CV is the coefficient of variation for gamma arrivals; cv > 1
	// models bursty tenants, cv < 1 smooth ones.
	CV float64 `json:"cv,omitempty"`
	// Shape is the Weibull shape parameter (shape < 1 is
	// heavy-tailed/bursty).
	Shape float64 `json:"shape,omitempty"`
}

// Content names a base benchmark and optional per-axis overrides.
// Pointer fields distinguish "absent" from an explicit zero.
type Content struct {
	// Base is a benchmark name from the synthetic suite. Required at
	// the client level; optional inside a phase change, where axes
	// default to the client's resolved content.
	Base string `json:"base,omitempty"`

	Model           *string  `json:"model,omitempty"` // pointer|int|fp|text|random
	ZeroFrac        *float64 `json:"zero_frac,omitempty"`
	ProtoFrac       *float64 `json:"proto_frac,omitempty"`
	ProtoCount      *int     `json:"proto_count,omitempty"`
	MutateWords     *int     `json:"mutate_words,omitempty"`
	ByteShiftFrac   *float64 `json:"byte_shift_frac,omitempty"`
	ObjLines        *int     `json:"obj_lines,omitempty"`
	WorkingSetLines *int     `json:"working_set_lines,omitempty"`
	HotLines        *int     `json:"hot_lines,omitempty"`
	HotFrac         *float64 `json:"hot_frac,omitempty"`
	StreamFrac      *float64 `json:"stream_frac,omitempty"`
	WriteFrac       *float64 `json:"write_frac,omitempty"`
	PhaseLen        *int     `json:"phase_len,omitempty"`
}

// PhaseChange switches a client's content model at a point in the run.
type PhaseChange struct {
	// At is the fraction of the client's access budget at which the
	// phase begins; strictly increasing in (0, 1).
	At float64 `json:"at"`
	// Content overrides axes for this phase; an empty Base inherits
	// the client's resolved content.
	Content Content `json:"content,omitempty"`
}

var valueModels = map[string]workload.ValueModel{
	"pointer": workload.ValuePointer,
	"int":     workload.ValueInt,
	"fp":      workload.ValueFP,
	"text":    workload.ValueText,
	"random":  workload.ValueRandom,
}

// Parse decodes and validates a workload spec. Unknown fields are
// rejected, so typos in axis names cannot silently fall back to
// defaults. Every failure wraps ErrInvalid.
func Parse(data []byte) (*Workload, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w Workload
	if err := dec.Decode(&w); err != nil {
		return nil, invalidf("%v", err)
	}
	var trailing any
	if err := dec.Decode(&trailing); err == nil {
		return nil, invalidf("trailing data after spec document")
	}
	if err := w.compile(); err != nil {
		return nil, err
	}
	return &w, nil
}

// Load reads and parses a workload spec file.
func Load(path string) (*Workload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	w, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return w, nil
}

// compile validates the spec and materializes the normalized rates and
// per-phase resolved benchmark specs.
func (w *Workload) compile() error {
	if w.Version != 1 {
		return invalidf("version %d unsupported (want 1)", w.Version)
	}
	if w.Name == "" {
		return invalidf("name is required")
	}
	if w.MeanGap == 0 {
		w.MeanGap = 100
	}
	if w.MeanGap < 1 || w.MeanGap > 1<<20 {
		return invalidf("mean_gap %d out of range [1, 2^20]", w.MeanGap)
	}
	if len(w.Clients) == 0 {
		return invalidf("at least one client is required")
	}
	if len(w.Clients) > MaxClients {
		return invalidf("%d clients exceeds the maximum of %d", len(w.Clients), MaxClients)
	}

	seen := make(map[string]bool, len(w.Clients))
	w.rates = make([]float64, len(w.Clients))
	w.resolved = make([][]workload.Spec, len(w.Clients))
	allDefault := true
	var rateSum float64
	for i := range w.Clients {
		c := &w.Clients[i]
		if c.ID == "" {
			return invalidf("client %d: id is required", i)
		}
		if seen[c.ID] {
			return invalidf("client %d: duplicate id %q", i, c.ID)
		}
		seen[c.ID] = true
		if c.RateFraction < 0 || math.IsNaN(c.RateFraction) || math.IsInf(c.RateFraction, 0) {
			return invalidf("client %q: rate_fraction %v must be finite and >= 0", c.ID, c.RateFraction)
		}
		if c.RateFraction != 0 {
			allDefault = false
		}
		rateSum += c.RateFraction
		if err := validateArrival(c.ID, c.Arrival); err != nil {
			return err
		}
		if c.Content.Base == "" {
			return invalidf("client %q: content.base is required", c.ID)
		}
		base, err := resolveContent(c.ID, c.Content, nil)
		if err != nil {
			return err
		}
		if len(c.Phases) > MaxPhases-1 {
			return invalidf("client %q: %d phase changes exceeds the maximum of %d",
				c.ID, len(c.Phases), MaxPhases-1)
		}
		phases := []workload.Spec{base}
		prevAt := 0.0
		for p, ph := range c.Phases {
			if !(ph.At > prevAt && ph.At < 1) {
				return invalidf("client %q: phase %d at=%v must be strictly increasing in (0, 1)",
					c.ID, p, ph.At)
			}
			prevAt = ph.At
			s, err := resolveContent(c.ID, ph.Content, &base)
			if err != nil {
				return err
			}
			phases = append(phases, s)
		}
		w.resolved[i] = phases
	}
	switch {
	case allDefault:
		for i := range w.rates {
			w.rates[i] = 1 / float64(len(w.Clients))
		}
	case rateSum <= 0:
		return invalidf("rate fractions must sum to a positive value")
	default:
		for i := range w.rates {
			if w.Clients[i].RateFraction == 0 {
				return invalidf("client %q: rate_fraction is required when any client sets one",
					w.Clients[i].ID)
			}
			w.rates[i] = w.Clients[i].RateFraction / rateSum
		}
	}
	return nil
}

func validateArrival(id string, a Arrival) error {
	switch a.Process {
	case "poisson", "fixed":
	case "gamma":
		if !(a.CV > 0) || math.IsInf(a.CV, 0) {
			return invalidf("client %q: gamma arrivals need cv > 0, got %v", id, a.CV)
		}
	case "weibull":
		if !(a.Shape > 0) || math.IsInf(a.Shape, 0) {
			return invalidf("client %q: weibull arrivals need shape > 0, got %v", id, a.Shape)
		}
	case "":
		return invalidf("client %q: arrival.process is required", id)
	default:
		return invalidf("client %q: unknown arrival process %q", id, a.Process)
	}
	return nil
}

// resolveContent materializes a Content into a concrete benchmark
// spec: the named base (or the inherited spec when Base is empty and
// inherit is non-nil), with explicit axis overrides applied, then
// validated against the generator's invariants.
func resolveContent(id string, c Content, inherit *workload.Spec) (workload.Spec, error) {
	var s workload.Spec
	switch {
	case c.Base != "":
		base, err := workload.ByName(c.Base)
		if err != nil {
			return s, invalidf("client %q: %v", id, err)
		}
		s = base
	case inherit != nil:
		s = *inherit
	default:
		return s, invalidf("client %q: content.base is required", id)
	}
	if c.Model != nil {
		m, ok := valueModels[*c.Model]
		if !ok {
			return s, invalidf("client %q: unknown value model %q", id, *c.Model)
		}
		s.Model = m
	}
	for _, f := range []struct {
		name string
		dst  *float64
		src  *float64
	}{
		{"zero_frac", &s.ZeroFrac, c.ZeroFrac},
		{"proto_frac", &s.ProtoFrac, c.ProtoFrac},
		{"byte_shift_frac", &s.ByteShiftFrac, c.ByteShiftFrac},
		{"hot_frac", &s.HotFrac, c.HotFrac},
		{"stream_frac", &s.StreamFrac, c.StreamFrac},
		{"write_frac", &s.WriteFrac, c.WriteFrac},
	} {
		if f.src == nil {
			continue
		}
		if *f.src < 0 || *f.src > 1 || math.IsNaN(*f.src) {
			return s, invalidf("client %q: %s %v out of [0, 1]", id, f.name, *f.src)
		}
		*f.dst = *f.src
	}
	for _, f := range []struct {
		name     string
		dst      *int
		src      *int
		min, max int
	}{
		{"proto_count", &s.ProtoCount, c.ProtoCount, 1, 1 << 12},
		{"mutate_words", &s.MutateWords, c.MutateWords, 0, workload.LineSize / 4},
		{"obj_lines", &s.ObjLines, c.ObjLines, 1, 1 << 12},
		{"working_set_lines", &s.WorkingSetLines, c.WorkingSetLines, 1, maxWorkingSet},
		{"hot_lines", &s.HotLines, c.HotLines, 1, maxWorkingSet},
		{"phase_len", &s.PhaseLen, c.PhaseLen, 1, 1 << 30},
	} {
		if f.src == nil {
			continue
		}
		if *f.src < f.min || *f.src > f.max {
			return s, invalidf("client %q: %s %d out of [%d, %d]", id, f.name, *f.src, f.min, f.max)
		}
		*f.dst = *f.src
	}
	if s.ZeroFrac+s.ProtoFrac > 1 {
		return s, invalidf("client %q: zero_frac+proto_frac %v exceeds 1", id, s.ZeroFrac+s.ProtoFrac)
	}
	if s.HotFrac+s.StreamFrac > 1 {
		return s, invalidf("client %q: hot_frac+stream_frac %v exceeds 1", id, s.HotFrac+s.StreamFrac)
	}
	if s.WorkingSetLines > maxWorkingSet {
		return s, invalidf("client %q: working_set_lines %d exceeds the phase subrange (%d)",
			id, s.WorkingSetLines, maxWorkingSet)
	}
	if s.HotLines > s.WorkingSetLines {
		return s, invalidf("client %q: hot_lines %d exceeds working_set_lines %d",
			id, s.HotLines, s.WorkingSetLines)
	}
	return s, nil
}

// Rates returns the normalized per-client rate fractions.
func (w *Workload) Rates() []float64 { return append([]float64(nil), w.rates...) }

// Resolved returns the materialized benchmark spec of one client phase
// (phase 0 is the client's top-level content).
func (w *Workload) Resolved(client, phase int) workload.Spec { return w.resolved[client][phase] }

// PhaseCount returns how many phases a client runs (1 + phase changes).
func (w *Workload) PhaseCount(client int) int { return len(w.resolved[client]) }

// ClientIDs returns the client identifiers in declaration order.
func (w *Workload) ClientIDs() []string {
	ids := make([]string, len(w.Clients))
	for i, c := range w.Clients {
		ids[i] = c.ID
	}
	return ids
}
