package topo

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"cable/internal/trace"
	"cable/internal/workload"
	"cable/internal/workload/spec"
)

// topoMixJSON matches the acceptance shape: two clients, poisson +
// gamma-bursty arrivals, one phase change.
const topoMixJSON = `{
  "version": 1,
  "name": "topo-mix",
  "seed": 5,
  "mean_gap": 24,
  "clients": [
    {"id": "front", "rate_fraction": 0.6, "arrival": {"process": "poisson"},
     "content": {"base": "gcc"},
     "phases": [{"at": 0.5, "content": {"base": "omnetpp", "working_set_lines": 8192}}]},
    {"id": "batch", "rate_fraction": 0.4, "arrival": {"process": "gamma", "cv": 3},
     "content": {"base": "mcf", "stream_frac": 0.5}}
  ]
}`

func specConfig(t *testing.T, shape string, chips int) Config {
	t.Helper()
	w, err := spec.Parse([]byte(topoMixJSON))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(shape, chips)
	cfg.Benchmark = ""
	cfg.Workload = w
	return cfg
}

// TestTopoSpecDeterministicAcrossParallelism runs the spec-driven mesh
// serial and parallel: identical results bit for bit.
func TestTopoSpecDeterministicAcrossParallelism(t *testing.T) {
	cfg := specConfig(t, ShapeMesh, 4)
	cfg.Parallelism = 1
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 8
	parallel, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("spec-driven topology run differs across parallelism")
	}
	if serial.LinkTransfers == 0 {
		t.Fatal("spec-driven run moved no traffic")
	}
}

// recordChip captures chip c's live stream: the same benchmark,
// instance c, base 0 — exactly what gapFeed draws live.
func recordChip(t *testing.T, bench string, c, n int) *trace.Trace {
	t.Helper()
	gen, err := workload.New(bench, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Record(&buf, gen, n); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTopoReplayMatchesLive is the record→replay contract for the
// topology engine: captures of the live per-chip streams, replayed
// with the same seed (injection gaps), reproduce the live run — every
// per-link table included — bit for bit.
func TestTopoReplayMatchesLive(t *testing.T) {
	cfg := testConfig(ShapeMesh, 4)
	live, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayCfg := cfg
	replayCfg.Benchmark = ""
	replayCfg.Replay = make([]*trace.Trace, cfg.Chips)
	for c := 0; c < cfg.Chips; c++ {
		// Transfers records per chip over-covers any chip's share of
		// the injection budget.
		replayCfg.Replay[c] = recordChip(t, cfg.Benchmark, c, cfg.Transfers)
	}
	replay, err := Run(replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replay) {
		t.Fatal("topology replay diverged from the live run")
	}
}

// TestTopoReplayExhaustedMidSchedule pins the dry-capture error: too
// few records per chip must fail hard, wrapping trace.ErrExhausted.
func TestTopoReplayExhaustedMidSchedule(t *testing.T) {
	cfg := testConfig(ShapeRing, 2)
	cfg.Benchmark = ""
	cfg.Replay = []*trace.Trace{
		recordChip(t, "dealII", 0, 10),
		recordChip(t, "dealII", 1, 10),
	}
	_, err := Run(cfg)
	if err == nil || !errors.Is(err, trace.ErrExhausted) {
		t.Fatalf("want error wrapping trace.ErrExhausted, got %v", err)
	}
}

// TestTopoValidateWorkloadSources pins the source mutual-exclusion
// rules added with spec/replay support.
func TestTopoValidateWorkloadSources(t *testing.T) {
	w, err := spec.Parse([]byte(topoMixJSON))
	if err != nil {
		t.Fatal(err)
	}
	capture := recordChip(t, "dealII", 0, 10)

	specAndBench := testConfig(ShapeRing, 2)
	specAndBench.Workload = w
	if err := specAndBench.Validate(); err == nil {
		t.Fatal("Workload + Benchmark should be rejected")
	}

	specAndReplay := testConfig(ShapeRing, 2)
	specAndReplay.Benchmark = ""
	specAndReplay.Workload = w
	specAndReplay.Replay = []*trace.Trace{capture, capture}
	if err := specAndReplay.Validate(); err == nil {
		t.Fatal("Workload + Replay should be rejected in topology runs")
	}

	wrongCount := testConfig(ShapeRing, 2)
	wrongCount.Benchmark = ""
	wrongCount.Replay = []*trace.Trace{capture}
	if err := wrongCount.Validate(); err == nil {
		t.Fatal("chip/capture count mismatch should be rejected")
	}

	noSource := testConfig(ShapeRing, 2)
	noSource.Benchmark = ""
	if err := noSource.Validate(); err == nil {
		t.Fatal("configs without any workload source should be rejected")
	}
}

// TestTopoWorkloadDigestsDistinct: spec and replay configurations key
// distinct memo cells from the benchmark run and from each other.
func TestTopoWorkloadDigestsDistinct(t *testing.T) {
	bench := testConfig(ShapeRing, 2)
	specCfg := specConfig(t, ShapeRing, 2)
	replayCfg := testConfig(ShapeRing, 2)
	replayCfg.Benchmark = ""
	replayCfg.Replay = []*trace.Trace{
		recordChip(t, "dealII", 0, 10),
		recordChip(t, "dealII", 1, 10),
	}
	seen := map[[16]byte]string{}
	for name, cfg := range map[string]Config{
		"bench": bench, "spec": specCfg, "replay": replayCfg,
	} {
		d := cfg.Digest()
		if prev, ok := seen[d]; ok {
			t.Fatalf("digest collision: %s aliases %s", name, prev)
		}
		seen[d] = name
	}
}
