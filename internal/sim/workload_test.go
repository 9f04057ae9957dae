package sim

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"cable/internal/trace"
	"cable/internal/workload"
	"cable/internal/workload/spec"
)

// mixJSON is the acceptance-shaped mix: two clients, poisson +
// gamma-bursty arrivals, one phase change.
const mixJSON = `{
  "version": 1,
  "name": "sim-mix",
  "seed": 11,
  "mean_gap": 60,
  "clients": [
    {"id": "front", "rate_fraction": 0.6, "arrival": {"process": "poisson"},
     "content": {"base": "gcc"},
     "phases": [{"at": 0.5, "content": {"base": "omnetpp", "working_set_lines": 8192}}]},
    {"id": "batch", "rate_fraction": 0.4, "arrival": {"process": "gamma", "cv": 3},
     "content": {"base": "mcf", "stream_frac": 0.5}}
  ]
}`

func mustMix(t *testing.T, src string) *spec.Workload {
	t.Helper()
	w, err := spec.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func quickMixConfig(w *spec.Workload) MemLinkConfig {
	cfg := DefaultMemLinkConfig()
	cfg.Workload = w
	cfg.AccessesPerProgram = 3000
	cfg.Chip.LLCBytes = 128 << 10
	cfg.Chip.L4Bytes = 512 << 10
	return cfg
}

// stripChip drops the chip pointer so two runs' results can be
// compared structurally.
func stripChip(res *MemLinkResult) *MemLinkResult {
	c := *res
	c.Chip = nil
	return &c
}

func TestMemLinkSpecRunsAndRepeats(t *testing.T) {
	w := mustMix(t, mixJSON)
	cfg := quickMixConfig(w)
	a, err := RunMemoryLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Programs; len(got) != 2 || got[0] != "front" || got[1] != "batch" {
		t.Fatalf("programs = %v", got)
	}
	for _, scheme := range []string{"cable", "cpack", "gzip"} {
		if r, ok := a.Total[scheme]; !ok || r.SourceBits == 0 {
			t.Fatalf("scheme %s missing or empty", scheme)
		}
	}
	b, err := RunMemoryLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripChip(a), stripChip(b)) {
		t.Fatal("spec-driven run is not deterministic across repeats")
	}
}

// recordMixClients captures a live mix's per-client streams in memory.
func recordMixClients(t *testing.T, w *spec.Workload, n int) []*trace.Trace {
	t.Helper()
	bufs := map[string]*bytes.Buffer{}
	err := spec.RecordClients(w, n, func(id string) (io.WriteCloser, error) {
		b := &bytes.Buffer{}
		bufs[id] = b
		return nopCloser{b}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]*trace.Trace, len(w.Clients))
	for i, id := range w.ClientIDs() {
		tr, err := trace.ReadAll(bytes.NewReader(bufs[id].Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = tr
	}
	return traces
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// TestMemLinkSpecReplayMatchesLive is the record→replay contract for
// spec mixes: per-client captures of a live mix, replayed through the
// same spec, reproduce every scheme's ratios exactly.
func TestMemLinkSpecReplayMatchesLive(t *testing.T) {
	w := mustMix(t, mixJSON)
	cfg := quickMixConfig(w)
	live, err := RunMemoryLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Replay = recordMixClients(t, w, cfg.AccessesPerProgram*len(w.Clients))
	replay, err := RunMemoryLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripChip(live), stripChip(replay)) {
		t.Fatal("spec replay diverged from the live mix")
	}
}

// recordBench captures a benchmark generator's stream in memory,
// instance-decorated to match a live co-run slot (base 0: the replay
// source rebases onto its program slot).
func recordBench(t *testing.T, bench string, instance, n int) *trace.Trace {
	t.Helper()
	gen, err := workload.New(bench, instance, 0)
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

// TestMemLinkReplayMatchesLive replays plain per-program captures
// against the equivalent live multiprogram run.
func TestMemLinkReplayMatchesLive(t *testing.T) {
	cfg := DefaultMemLinkConfig("gcc", "mcf")
	cfg.AccessesPerProgram = 3000
	cfg.Chip.LLCBytes = 128 << 10
	cfg.Chip.L4Bytes = 512 << 10
	live, err := RunMemoryLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayCfg := cfg
	replayCfg.Benchmarks = nil
	replayCfg.Replay = []*trace.Trace{
		recordBench(t, "gcc", 0, cfg.AccessesPerProgram),
		recordBench(t, "mcf", 1, cfg.AccessesPerProgram),
	}
	replay, err := RunMemoryLink(replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripChip(live), stripChip(replay)) {
		t.Fatal("capture replay diverged from the live generators")
	}
}

// TestMemLinkReplayTooShort pins the upfront length check: a capture
// shorter than the run fails immediately with ErrExhausted.
func TestMemLinkReplayTooShort(t *testing.T) {
	cfg := DefaultMemLinkConfig()
	cfg.AccessesPerProgram = 100
	cfg.Replay = []*trace.Trace{recordBench(t, "gcc", 0, 50)}
	if _, err := RunMemoryLink(cfg); err == nil {
		t.Fatal("short capture should fail the run upfront")
	}
}

// TestWorkloadDigestsDistinct pins the memo-aliasing contract: spec,
// replay and benchmark runs of otherwise-identical configs key
// different memo cells, and distinct specs/captures never collide.
func TestWorkloadDigestsDistinct(t *testing.T) {
	w := mustMix(t, mixJSON)
	w2 := mustMix(t, mixJSON)
	w2.Seed = 12345
	base := quickMixConfig(w)
	altSpec := quickMixConfig(w2)
	replay := base
	replay.Replay = recordMixClients(t, w, 200)
	bench := base
	bench.Workload = nil
	bench.Benchmarks = []string{"gcc", "mcf"}
	plainReplay := bench
	plainReplay.Benchmarks = nil
	plainReplay.Replay = []*trace.Trace{recordBench(t, "gcc", 0, 200)}
	seen := map[[16]byte]string{}
	for name, cfg := range map[string]MemLinkConfig{
		"spec":         base,
		"spec-alt":     altSpec,
		"spec-replay":  replay,
		"benchmarks":   bench,
		"plain-replay": plainReplay,
	} {
		d := cfg.Digest()
		if prev, ok := seen[d]; ok {
			t.Fatalf("digest collision: %s aliases %s", name, prev)
		}
		seen[d] = name
	}
}
