package spec

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"testing"

	"cable/internal/obs"
	"cable/internal/trace"
)

// exampleJSON is a compact two-client mix used across the tests:
// poisson + bursty gamma arrivals and one phase change, mirroring the
// committed examples/workloads/bursty-mix.json.
const exampleJSON = `{
  "version": 1,
  "name": "test-mix",
  "seed": 7,
  "mean_gap": 50,
  "clients": [
    {"id": "a", "rate_fraction": 0.7, "arrival": {"process": "poisson"},
     "content": {"base": "gcc"},
     "phases": [{"at": 0.5, "content": {"base": "omnetpp", "working_set_lines": 4096, "hot_lines": 512}}]},
    {"id": "b", "rate_fraction": 0.3, "arrival": {"process": "gamma", "cv": 3},
     "content": {"base": "mcf", "stream_frac": 0.5}}
  ]
}`

func mustParse(t *testing.T, src string) *Workload {
	t.Helper()
	w, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestParseExample(t *testing.T) {
	w := mustParse(t, exampleJSON)
	if got := w.ClientIDs(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("client ids = %v", got)
	}
	r := w.Rates()
	if math.Abs(r[0]-0.7) > 1e-12 || math.Abs(r[1]-0.3) > 1e-12 {
		t.Fatalf("rates = %v", r)
	}
	if w.PhaseCount(0) != 2 || w.PhaseCount(1) != 1 {
		t.Fatalf("phase counts = %d, %d", w.PhaseCount(0), w.PhaseCount(1))
	}
	if s := w.Resolved(0, 1); s.Name != "omnetpp" || s.WorkingSetLines != 4096 {
		t.Fatalf("resolved phase 1 = %+v", s)
	}
	if s := w.Resolved(1, 0); s.StreamFrac != 0.5 || s.Name != "mcf" {
		t.Fatalf("override not applied: %+v", s)
	}
}

func TestCommittedExampleParses(t *testing.T) {
	w, err := Load("../../../examples/workloads/bursty-mix.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Clients) < 2 || w.PhaseCount(0) < 2 {
		t.Fatalf("committed example lost its shape: %+v", w.ClientIDs())
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad version":       `{"version": 2, "name": "x", "clients": [{"id": "a", "arrival": {"process": "poisson"}, "content": {"base": "gcc"}}]}`,
		"no name":           `{"version": 1, "clients": [{"id": "a", "arrival": {"process": "poisson"}, "content": {"base": "gcc"}}]}`,
		"no clients":        `{"version": 1, "name": "x", "clients": []}`,
		"unknown field":     `{"version": 1, "name": "x", "unknown": true, "clients": [{"id": "a", "arrival": {"process": "poisson"}, "content": {"base": "gcc"}}]}`,
		"unknown axis":      `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "poisson"}, "content": {"base": "gcc", "zerofrac": 0.5}}]}`,
		"dup id":            `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "poisson"}, "content": {"base": "gcc"}}, {"id": "a", "arrival": {"process": "poisson"}, "content": {"base": "gcc"}}]}`,
		"no process":        `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {}, "content": {"base": "gcc"}}]}`,
		"bad process":       `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "pareto"}, "content": {"base": "gcc"}}]}`,
		"gamma no cv":       `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "gamma"}, "content": {"base": "gcc"}}]}`,
		"weibull bad shape": `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "weibull", "shape": -1}, "content": {"base": "gcc"}}]}`,
		"no base":           `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "poisson"}, "content": {}}]}`,
		"bad base":          `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "poisson"}, "content": {"base": "nope"}}]}`,
		"bad model":         `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "poisson"}, "content": {"base": "gcc", "model": "quantum"}}]}`,
		"frac over 1":       `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "poisson"}, "content": {"base": "gcc", "zero_frac": 1.5}}]}`,
		"frac sum over 1":   `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "poisson"}, "content": {"base": "gcc", "zero_frac": 0.7, "proto_frac": 0.7}}]}`,
		"hot > ws":          `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "poisson"}, "content": {"base": "gcc", "working_set_lines": 64, "hot_lines": 128}}]}`,
		"ws too big":        `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "poisson"}, "content": {"base": "gcc", "working_set_lines": 33554432}}]}`,
		"phase at 0":        `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "poisson"}, "content": {"base": "gcc"}, "phases": [{"at": 0}]}]}`,
		"phase at 1":        `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "poisson"}, "content": {"base": "gcc"}, "phases": [{"at": 1}]}]}`,
		"phase order":       `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "poisson"}, "content": {"base": "gcc"}, "phases": [{"at": 0.6}, {"at": 0.4}]}]}`,
		"negative rate":     `{"version": 1, "name": "x", "clients": [{"id": "a", "rate_fraction": -1, "arrival": {"process": "poisson"}, "content": {"base": "gcc"}}]}`,
		"partial rates":     `{"version": 1, "name": "x", "clients": [{"id": "a", "rate_fraction": 0.5, "arrival": {"process": "poisson"}, "content": {"base": "gcc"}}, {"id": "b", "arrival": {"process": "poisson"}, "content": {"base": "gcc"}}]}`,
		"trailing data":     `{"version": 1, "name": "x", "clients": [{"id": "a", "arrival": {"process": "poisson"}, "content": {"base": "gcc"}}]} {"more": 1}`,
		"not json":          `version: 1`,
	}
	for name, src := range cases {
		if _, err := Parse([]byte(src)); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: want ErrInvalid, got %v", name, err)
		}
	}
}

// TestSamplerStats sanity-checks each process: deterministic given a
// seed, gaps >= 1, and an empirical mean near the configured one.
func TestSamplerStats(t *testing.T) {
	for _, a := range []Arrival{
		{Process: "poisson"},
		{Process: "gamma", CV: 3},
		{Process: "gamma", CV: 0.5},
		{Process: "weibull", Shape: 0.7},
		{Process: "fixed"},
	} {
		const mean = 200.0
		const n = 200000
		s1 := newSampler(a, mean, 99)
		s2 := newSampler(a, mean, 99)
		var sum float64
		for i := 0; i < n; i++ {
			g1, g2 := s1.next(), s2.next()
			if g1 != g2 {
				t.Fatalf("%s: draw %d diverged: %d != %d", a.Process, i, g1, g2)
			}
			if g1 < 1 {
				t.Fatalf("%s: gap %d < 1", a.Process, g1)
			}
			sum += float64(g1)
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.05 {
			t.Errorf("%s: empirical mean %.1f, want ~%.1f", a.Process, got, mean)
		}
	}
}

func runMix(t *testing.T, w *Workload, o MixOptions, n int) []Emission {
	t.Helper()
	m, err := NewMix(w, o)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Emission, n)
	for i := range out {
		e, err := m.Next()
		if err != nil {
			t.Fatalf("emission %d: %v", i, err)
		}
		out[i] = e
	}
	return out
}

func TestMixDeterministicAndOrdered(t *testing.T) {
	w := mustParse(t, exampleJSON)
	const n = 20000
	o := MixOptions{Budget: n, Registry: obs.NewRegistry()}
	e1 := runMix(t, w, o, n)
	o.Registry = obs.NewRegistry()
	e2 := runMix(t, w, o, n)
	counts := make(map[int]int)
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("emission %d diverged: %+v != %+v", i, e1[i], e2[i])
		}
		if i > 0 && e1[i].At < e1[i-1].At {
			t.Fatalf("emission %d: time went backwards (%d < %d)", i, e1[i].At, e1[i-1].At)
		}
		counts[e1[i].Client]++
		base := ClientBase(e1[i].Client)
		if e1[i].Access.LineAddr < base || e1[i].Access.LineAddr >= base+1<<ClientShift {
			t.Fatalf("emission %d: address %#x outside client %d space",
				i, e1[i].Access.LineAddr, e1[i].Client)
		}
	}
	// Rate fractions steer the split (0.7/0.3 within a loose band).
	fracA := float64(counts[0]) / n
	if fracA < 0.6 || fracA > 0.8 {
		t.Fatalf("client a emitted %.2f of traffic, want ~0.7", fracA)
	}
}

// TestMixPhaseChange proves the phase machinery moves the working set:
// client a's early accesses stay in its phase-0 subrange and its late
// accesses migrate to the phase-1 subrange.
func TestMixPhaseChange(t *testing.T) {
	w := mustParse(t, exampleJSON)
	const n = 20000
	es := runMix(t, w, MixOptions{Budget: n, Registry: obs.NewRegistry()}, n)
	var early, lateP1 int
	var aSeen int
	for _, e := range es {
		if e.Client != 0 {
			continue
		}
		aSeen++
		inP1 := e.Access.LineAddr >= PhaseBase(0, 1)
		if aSeen < 1000 {
			if inP1 {
				t.Fatalf("access %d of client a already in phase 1 (%#x)", aSeen, e.Access.LineAddr)
			}
			early++
		} else if inP1 {
			lateP1++
		}
	}
	if lateP1 == 0 {
		t.Fatal("client a never reached its phase-1 subrange")
	}
}

// TestMixVariants: different variants draw different address streams
// (decorrelated chips) but share the content function.
func TestMixVariants(t *testing.T) {
	w := mustParse(t, exampleJSON)
	const n = 2000
	e0 := runMix(t, w, MixOptions{Budget: n, Registry: obs.NewRegistry()}, n)
	e1 := runMix(t, w, MixOptions{Budget: n, Variant: 1, Registry: obs.NewRegistry()}, n)
	same := 0
	for i := range e0 {
		if e0[i].Access.LineAddr == e1[i].Access.LineAddr {
			same++
		}
	}
	if same == n {
		t.Fatal("variant 1 drew the identical address stream")
	}
	t0, _ := NewContentTable(w, obs.NewRegistry())
	t1, _ := NewContentTable(w, obs.NewRegistry())
	for i := 0; i < 200; i++ {
		addr := e0[i].Access.LineAddr
		if !bytes.Equal(t0.LineData(addr), t1.LineData(addr)) {
			t.Fatalf("content diverged at %#x", addr)
		}
	}
}

// TestRecordReplayIdentity is the heart of the replay contract: a live
// mix, its per-client captures, and a replay mix over those captures
// must produce identical emission sequences — time, client, and access.
func TestRecordReplayIdentity(t *testing.T) {
	w := mustParse(t, exampleJSON)
	const n = 10000
	live := runMix(t, w, MixOptions{Budget: n, Registry: obs.NewRegistry()}, n)

	files := map[string]*bytes.Buffer{}
	err := RecordClients(w, n, func(id string) (io.WriteCloser, error) {
		b := &bytes.Buffer{}
		files[id] = b
		return nopCloser{b}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]*trace.Trace, len(w.Clients))
	for i, id := range w.ClientIDs() {
		tr, err := trace.ReadAll(bytes.NewReader(files[id].Bytes()))
		if err != nil {
			t.Fatalf("client %s: %v", id, err)
		}
		traces[i] = tr
	}
	replay := runMix(t, w, MixOptions{Replay: traces, Registry: obs.NewRegistry()}, n)
	for i := range live {
		if live[i] != replay[i] {
			t.Fatalf("emission %d: live %+v != replay %+v", i, live[i], replay[i])
		}
	}

	// One more emission than recorded must fail loudly.
	m, err := NewMix(w, MixOptions{Replay: traces, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := m.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Next(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
}

// TestReplayMismatch: captures from the wrong client layout are
// rejected up front.
func TestReplayMismatch(t *testing.T) {
	w := mustParse(t, exampleJSON)
	if _, err := NewMix(w, MixOptions{Replay: []*trace.Trace{}}); !errors.Is(err, ErrReplayMismatch) {
		t.Fatalf("want ErrReplayMismatch for wrong count, got %v", err)
	}
	bad := []*trace.Trace{
		{Header: trace.Header{Benchmark: "a", Instance: 0}},
		{Header: trace.Header{Benchmark: "wrong", Instance: 1}},
	}
	if _, err := NewMix(w, MixOptions{Replay: bad}); !errors.Is(err, ErrReplayMismatch) {
		t.Fatalf("want ErrReplayMismatch for wrong id, got %v", err)
	}
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

func TestMain(m *testing.M) { os.Exit(m.Run()) }
