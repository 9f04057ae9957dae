package experiments

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"cable/internal/trace"
	"cable/internal/workload/spec"
)

// expMixJSON is the acceptance-shaped mix: two clients, poisson +
// gamma-bursty arrivals, one phase change.
const expMixJSON = `{
  "version": 1,
  "name": "exp-mix",
  "seed": 3,
  "mean_gap": 40,
  "clients": [
    {"id": "front", "rate_fraction": 0.6, "arrival": {"process": "poisson"},
     "content": {"base": "gcc"},
     "phases": [{"at": 0.5, "content": {"base": "omnetpp", "working_set_lines": 8192}}]},
    {"id": "batch", "rate_fraction": 0.4, "arrival": {"process": "gamma", "cv": 3},
     "content": {"base": "mcf", "stream_frac": 0.5}}
  ]
}`

func expMix(t *testing.T) *spec.Workload {
	t.Helper()
	w, err := spec.Parse([]byte(expMixJSON))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkloadExperimentPlaceholder: with no source configured the
// driver must return an explanatory placeholder, not an error, so
// full-suite report runs stay green.
func TestWorkloadExperimentPlaceholder(t *testing.T) {
	res, err := Workload(Options{Quick: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Notes) == 0 {
		t.Fatal("placeholder should explain how to configure a source")
	}
}

// TestWorkloadExperimentRejectsClientlessSpec: a hand-built spec with
// no clients (reachable through cable.ExperimentOptions) combined with
// a replay used to divide by the client count; it must surface as a
// spec.ErrInvalid error instead.
func TestWorkloadExperimentRejectsClientlessSpec(t *testing.T) {
	opt := Options{Quick: true, Workload: &spec.Workload{}, Replay: []*trace.Trace{{}}}
	if _, err := Workload(opt); !errors.Is(err, spec.ErrInvalid) {
		t.Fatalf("client-less spec: want spec.ErrInvalid, got %v", err)
	}
}

// TestWorkloadExperimentsDeterministic is the acceptance contract for
// the spec path: the workload experiment (memlink driver) and the mesh
// experiment (topology DES) produce byte-identical tables and metrics
// dumps at any parallelism, memo on or off.
func TestWorkloadExperimentsDeterministic(t *testing.T) {
	w := expMix(t)
	ids := []string{"workload", "mesh"}
	base := Options{Quick: true, Parallelism: 1, DisableCellMemo: true, Workload: w}
	baseTables, baseMetrics := renderAll(t, ids, base)
	for _, opt := range []Options{
		{Quick: true, Parallelism: 8, DisableCellMemo: true, Workload: w},
		{Quick: true, Parallelism: 1, Workload: w},
		{Quick: true, Parallelism: 8, Workload: w},
	} {
		tables, metrics := renderAll(t, ids, opt)
		if tables != baseTables {
			t.Fatalf("tables diverge at parallel=%d memo=%v:\n%s\n-- vs --\n%s",
				opt.Parallelism, !opt.DisableCellMemo, tables, baseTables)
		}
		if !bytes.Equal(metrics, baseMetrics) {
			t.Fatalf("metrics dump diverges at parallel=%d memo=%v",
				opt.Parallelism, !opt.DisableCellMemo)
		}
	}
}

// recordExpClients captures the live mix's per-client streams.
func recordExpClients(t *testing.T, w *spec.Workload, n int) []*trace.Trace {
	t.Helper()
	bufs := map[string]*bytes.Buffer{}
	err := spec.RecordClients(w, n, func(id string) (io.WriteCloser, error) {
		b := &bytes.Buffer{}
		bufs[id] = b
		return writeNopCloser{b}, nil
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

type writeNopCloser struct{ io.Writer }

func (writeNopCloser) Close() error { return nil }

// TestWorkloadExperimentReplayMatchesLive: per-client captures of the
// live mix, replayed through the same spec, regenerate the identical
// ratio table.
func TestWorkloadExperimentReplayMatchesLive(t *testing.T) {
	w := expMix(t)
	liveOpt := Options{Quick: true, Parallelism: 2, Workload: w}
	live, err := Workload(liveOpt)
	if err != nil {
		t.Fatal(err)
	}
	n := accesses(liveOpt) * len(w.Clients)
	replayOpt := liveOpt
	replayOpt.Replay = recordExpClients(t, w, n)
	replay, err := Workload(replayOpt)
	if err != nil {
		t.Fatal(err)
	}
	if live.Table.String() != replay.Table.String() {
		t.Fatalf("replay table diverged from live:\n%s\n-- vs --\n%s",
			replay.Table, live.Table)
	}
}
