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

// TestEventQueueOrder checks the calendar queue against a sort:
// interleaved pushes and pops must yield events in (at, seq) order, ties
// included. Times reach several windows past the last pop, so pushes go
// to the far heap, pops migrate them into slots and jump across empty
// windows, and pushes land on a slot that pops have partly drained.
func TestEventQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q eventQueue
	q.reset()
	var pending []event
	var now uint64
	var pops, farPushes, migrations, jumps, partlyDrained int
	drain := func(n int) {
		sort.Slice(pending, func(i, j int) bool { return pending[i].before(pending[j]) })
		for ; n > 0 && !q.empty(); n-- {
			if q.n == 0 {
				jumps++
			}
			far := len(q.far)
			got := *q.pop()
			if len(q.far) < far {
				migrations++
			}
			pops++
			if want := pending[0]; got != want {
				t.Fatalf("pop %d = %+v, want %+v", pops, got, want)
			}
			pending = pending[1:]
			now = got.at
		}
	}
	for seq := uint64(1); seq <= 20000; seq++ {
		var at uint64
		switch rng.Intn(4) {
		case 0:
			at = now
			if s := now & (calW - 1); pops > 0 && q.occ[s>>6]>>(s&63)&1 == 1 {
				partlyDrained++
			}
		case 1:
			at = now + uint64(rng.Intn(calW))
		default:
			at = now + uint64(rng.Intn(4*calW))
		}
		if at-now >= calW {
			farPushes++
		}
		ev := event{at: at, seq: seq, kind: uint8(seq), id: int32(seq), ref: seq * 3}
		q.push(ev)
		pending = append(pending, ev)
		if rng.Intn(2) == 0 {
			drain(1 + rng.Intn(3))
		}
	}
	drain(len(pending))
	if !q.empty() || len(pending) != 0 {
		t.Fatalf("queue empty=%v, reference holds %d, after draining", q.empty(), len(pending))
	}
	t.Logf("%d pops: %d far pushes, %d migrating pops, %d jumps, %d same-cycle pushes onto a partly drained slot",
		pops, farPushes, migrations, jumps, partlyDrained)
	if farPushes == 0 || migrations == 0 || jumps == 0 || partlyDrained == 0 {
		t.Fatal("a calendar queue path went unexercised")
	}
}

// FuzzEventQueueParity runs the calendar queue against the typed heap
// it replaced over arbitrary push/pop sequences. Each byte is one
// operation: b&3 == 0 pops; otherwise it pushes at the last popped
// time plus 0 (b&3 == 1), b>>2 (2) or 37*(b>>2) cycles (3, up to nine
// windows ahead).
func FuzzEventQueueParity(f *testing.F) {
	f.Add([]byte{1, 1, 0, 1, 0, 0})
	f.Add([]byte{255, 7, 3, 0, 251, 1, 0, 0, 0, 6, 2, 0, 0})
	f.Add([]byte{131, 127, 0, 1, 5, 0, 255, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q eventQueue
		q.reset()
		var h eventHeap
		var now, seq uint64
		pop := func() {
			got, want := *q.pop(), h.pop()
			if got != want {
				t.Fatalf("after %d pushes: calendar popped %+v, heap %+v", seq, got, want)
			}
			now = got.at
		}
		for _, b := range ops {
			var d uint64
			switch b & 3 {
			case 0:
				if len(h) > 0 {
					pop()
				}
				continue
			case 2:
				d = uint64(b >> 2)
			case 3:
				d = 37 * uint64(b>>2)
			}
			seq++
			ev := event{at: now + d, seq: seq, kind: b, id: int32(seq), ref: d}
			q.push(ev)
			h.push(ev)
		}
		for len(h) > 0 {
			pop()
		}
		if !q.empty() {
			t.Fatal("calendar queue holds events the heap has drained")
		}
	})
}

// testConfig is a small-but-nontrivial cell: every chip sends, every
// link carries traffic, and the caches are small enough to evict.
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
