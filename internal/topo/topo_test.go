package topo

import (
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"cable/internal/fault"
	"cable/internal/obs"
	"cable/internal/sim"
)

// testConfig is a small-but-nontrivial cell: every chip sends, every
// link carries traffic, and the caches are small enough to evict.
// TestEventHeapOrder checks the typed heap against a sort: interleaved
// pushes and pops must yield events in (at, seq) order, ties included.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	var pending []event
	pops := 0
	drain := func(n int) {
		sort.Slice(pending, func(i, j int) bool { return pending[i].before(pending[j]) })
		for ; n > 0 && len(h) > 0; n-- {
			pops++
			if got, want := h.pop(), pending[0]; got != want {
				t.Fatalf("pop %d = %+v, want %+v", pops, got, want)
			}
			pending = pending[1:]
		}
	}
	for seq := uint64(1); seq <= 5000; seq++ {
		ev := event{at: uint64(rng.Intn(64)), seq: seq, id: int32(seq)}
		h.push(ev)
		pending = append(pending, ev)
		if rng.Intn(3) == 0 {
			drain(1 + rng.Intn(4))
		}
	}
	drain(len(h))
	if len(h) != 0 || len(pending) != 0 {
		t.Fatalf("heap holds %d events, reference %d, after draining", len(h), len(pending))
	}
}

func testConfig(shape string, chips int) Config {
	cfg := DefaultConfig("dealII")
	cfg.Shape = shape
	cfg.Chips = chips
	cfg.Transfers = 6000
	cfg.HomeBytes = 64 << 10
	cfg.RemoteBytes = 32 << 10
	return cfg
}

func TestMeshDims(t *testing.T) {
	cases := map[int][2]int{2: {1, 2}, 4: {2, 2}, 6: {2, 3}, 7: {1, 7}, 8: {2, 4}, 12: {3, 4}, 16: {4, 4}}
	for n, want := range cases {
		w, h := meshDims(n)
		if w != want[0] || h != want[1] {
			t.Errorf("meshDims(%d) = %dx%d, want %dx%d", n, w, h, want[0], want[1])
		}
	}
}

func TestRouting(t *testing.T) {
	// Ring: shortest direction, ties clockwise.
	ring, err := buildTopology(ShapeRing, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := ring.nextHop(0, 2); got != 1 {
		t.Errorf("ring 0->2 next hop = %d, want 1", got)
	}
	if got := ring.nextHop(0, 5); got != 5 {
		t.Errorf("ring 0->5 next hop = %d, want 5", got)
	}
	if got := ring.nextHop(0, 3); got != 1 {
		t.Errorf("ring 0->3 (tie) next hop = %d, want clockwise 1", got)
	}
	// Star: everything through hub 0.
	star, err := buildTopology(ShapeStar, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r := star.route(3, 4, nil); len(r) != 2 {
		t.Errorf("star 3->4 route length = %d, want 2", len(r))
	}
	if len(star.links) != 8 {
		t.Errorf("star(5) has %d directed links, want 8", len(star.links))
	}
	// Mesh: X then Y, every route finite.
	mesh, err := buildTopology(ShapeMesh, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(mesh.links) != 48 {
		t.Errorf("mesh(16) has %d directed links, want 48", len(mesh.links))
	}
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			r := mesh.route(src, dst, nil)
			wantHops := abs(src%4-dst%4) + abs(src/4-dst/4)
			if len(r) != wantHops {
				t.Errorf("mesh route %d->%d has %d hops, want %d", src, dst, len(r), wantHops)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestRunDeterministicAcrossParallelism proves the bit-identity
// contract at the engine level: any worker count, with and without
// fault injection, on every shape.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	for _, shape := range []string{ShapeRing, ShapeMesh, ShapeStar} {
		for _, faulty := range []bool{false, true} {
			cfg := testConfig(shape, 6)
			cfg.Metrics = obs.NewRegistry()
			if faulty {
				cfg.Verify = false
				cfg.Fault = fault.Config{BitRate: 1e-3, Seed: 7}
			}
			cfg.Parallelism = 1
			base, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s serial: %v", shape, err)
			}
			cfg2 := cfg
			cfg2.Metrics = obs.NewRegistry()
			cfg2.Parallelism = 8
			par, err := Run(cfg2)
			if err != nil {
				t.Fatalf("%s parallel: %v", shape, err)
			}
			if !reflect.DeepEqual(base, par) {
				t.Errorf("%s (fault=%v): results differ between -parallel 1 and 8", shape, faulty)
			}
			if base.LinkTransfers < uint64(cfg.Transfers) {
				t.Errorf("%s: %d transfers < target %d", shape, base.LinkTransfers, cfg.Transfers)
			}
			if base.Ratio() <= 1 {
				t.Errorf("%s: compression ratio %.2f not > 1", shape, base.Ratio())
			}
			if base.Speedup() <= 1 {
				t.Errorf("%s: makespan speedup %.2f not > 1", shape, base.Speedup())
			}
		}
	}
}

// TestFaultAccounting pins the degradation invariant: every corrupted
// image is detected, counted once, and recovered by exactly one raw
// resend — summed per link and globally.
func TestFaultAccounting(t *testing.T) {
	cfg := testConfig(ShapeMesh, 8)
	cfg.Verify = false
	cfg.Fault = fault.Config{BitRate: 2e-3, TruncRate: 1e-4, Seed: 11}
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsInjected == 0 {
		t.Fatal("no faults injected at 2e-3 over 6k transfers")
	}
	if res.DecodeErrors != res.FaultsInjected || res.RawFallbacks != res.FaultsInjected {
		t.Errorf("degradation invariant broken: faults=%d decode_errors=%d fallbacks=%d",
			res.FaultsInjected, res.DecodeErrors, res.RawFallbacks)
	}
	var perLink uint64
	for i := range res.PerLink {
		perLink += res.PerLink[i].FaultsInjected
	}
	if perLink != res.FaultsInjected {
		t.Errorf("per-link fault sum %d != total %d", perLink, res.FaultsInjected)
	}
}

// TestZeroRateFaultInert proves an enabled-rate-zero fault config
// cannot perturb results or the metric name set.
func TestZeroRateFaultInert(t *testing.T) {
	cfg := testConfig(ShapeRing, 4)
	cfg.Metrics = obs.NewRegistry()
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg2 := cfg
	cfg2.Metrics = reg
	cfg2.Fault = fault.Config{Seed: 99} // zero rates: no injector
	zero, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, zero) {
		t.Error("zero-rate fault config changed results")
	}
	for name := range reg.Snapshot(false).Counters {
		if name == "topo.faults_injected" {
			t.Error("zero-rate run registered fault counters")
		}
	}
}

// TestFlightWindowReconciliation sums every per-link flight window
// (partial included) and checks the totals equal the link's stat row —
// the window stream is a lossless decomposition of the run.
func TestFlightWindowReconciliation(t *testing.T) {
	cfg := testConfig(ShapeMesh, 8)
	cfg.Verify = false
	cfg.Fault = fault.Config{BitRate: 1e-3, Seed: 5}
	cfg.Metrics = obs.NewRegistry()
	rec := obs.NewRecorder(obs.FlightConfig{Window: 4096, MaxWindows: 1 << 20})
	cfg.Recorder = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dump := rec.Dump()
	if len(dump.Tracks) != len(res.PerLink) {
		t.Fatalf("%d tracks for %d links", len(dump.Tracks), len(res.PerLink))
	}
	if dump.Now != res.CableMakespan {
		t.Errorf("recorder now %d != cable makespan %d", dump.Now, res.CableMakespan)
	}
	for i, td := range dump.Tracks {
		st := res.PerLink[i]
		if want := "link" + st.Name; td.Name != want {
			t.Fatalf("track %d named %q, want %q", i, td.Name, want)
		}
		var transfers, source, wire, toggles, faults, fallbacks uint64
		var prevEnd uint64
		for _, w := range td.Windows {
			if w.Start != prevEnd {
				t.Fatalf("track %s: window starts at %d, previous ended at %d", td.Name, w.Start, prevEnd)
			}
			prevEnd = w.End
			transfers += w.Transfers
			source += w.SourceBits
			wire += w.WireBits
			toggles += w.Toggles
			faults += w.Faults
			fallbacks += w.RawFallbacks
		}
		if transfers != st.Transfers || source != st.SourceBits || wire != st.WireBits ||
			toggles != st.Toggles || faults != st.FaultsInjected || fallbacks != st.RawFallbacks {
			t.Errorf("track %s: window sums (t=%d s=%d w=%d tog=%d f=%d fb=%d) != link stats (t=%d s=%d w=%d tog=%d f=%d fb=%d)",
				td.Name, transfers, source, wire, toggles, faults, fallbacks,
				st.Transfers, st.SourceBits, st.WireBits, st.Toggles, st.FaultsInjected, st.RawFallbacks)
		}
	}
}

// TestMeshSoak drives the 16-chip mesh through a sustained
// fault-injected run. The default (250k transfers) keeps `go test`
// fast; `make soak-mesh` raises it via CABLE_MESH_SOAK_TRANSFERS
// (1M in CI; the PR acceptance run used 10M).
func TestMeshSoak(t *testing.T) {
	// Every link's pair checks the home/remote synchronization invariant
	// every 2048 fills.
	prev := sim.CheckSyncEvery(2048)
	t.Cleanup(func() { sim.CheckSyncEvery(prev) })
	transfers := 250_000
	if s := os.Getenv("CABLE_MESH_SOAK_TRANSFERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad CABLE_MESH_SOAK_TRANSFERS=%q", s)
		}
		transfers = n
	}
	cfg := DefaultConfig("dealII")
	cfg.Transfers = transfers
	cfg.Verify = false
	cfg.Fault = fault.Config{BitRate: 1e-3, Seed: 1}
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkTransfers < uint64(transfers) {
		t.Fatalf("soak made %d transfers, want ≥%d", res.LinkTransfers, transfers)
	}
	if res.FaultsInjected == 0 || res.DecodeErrors != res.FaultsInjected {
		t.Fatalf("soak degradation accounting: faults=%d decode_errors=%d", res.FaultsInjected, res.DecodeErrors)
	}
	t.Logf("soak: %d transfers, ratio %.2fx, speedup %.2fx, util %.2f, faults %d",
		res.LinkTransfers, res.Ratio(), res.Speedup(), res.MeanUtilization(), res.FaultsInjected)
}
