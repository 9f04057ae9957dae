package experiments

import (
	"math"
	"slices"
	"testing"
)

var quick = Options{Quick: true}

func run(t *testing.T, id string) *Result {
	t.Helper()
	res, err := Run(id, quick)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.Table == nil || len(res.Table.Rows()) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	t.Logf("\n%s", res.Table)
	return res
}

func TestIDsComplete(t *testing.T) {
	// Every table/figure in the evaluation must have a driver.
	want := []string{"fig3", "fig11", "fig12", "fig13", "fig14a", "fig14b",
		"fig15", "fig16", "fig17", "fig18", "fig19a", "fig19b", "fig20",
		"fig21", "fig22", "fig23", "tab3", "toggles", "headline", "onoff"}
	ids := IDs()
	set := map[string]bool{}
	for _, id := range ids {
		set[id] = true
		if Describe(id) == "" {
			t.Errorf("%s has no description", id)
		}
	}
	for _, w := range want {
		if !set[w] {
			t.Errorf("missing experiment %s", w)
		}
	}
	if _, err := Run("nope", quick); err == nil {
		t.Error("unknown id should error")
	}
	if Describe("nope") != "" {
		t.Error("unknown id should have empty description")
	}
}

func TestFig3Shape(t *testing.T) {
	res := run(t, "fig3")
	rows := res.Table.Rows()
	first, last := rows[0], rows[len(rows)-1]
	// Ideal must grow with dictionary size…
	if res.Table.Get(last, "ideal") <= res.Table.Get(first, "ideal")*1.02 {
		t.Fatalf("ideal does not grow: %.3f → %.3f",
			res.Table.Get(first, "ideal"), res.Table.Get(last, "ideal"))
	}
	// …while pointer overhead flattens or reverses the gains.
	idealGain := res.Table.Get(last, "ideal") / res.Table.Get(first, "ideal")
	ptrGain := res.Table.Get(last, "ideal+pointer") / res.Table.Get(first, "ideal+pointer")
	if ptrGain > idealGain*0.9 {
		t.Fatalf("pointer overhead should eat the gains: ideal %.3fx vs with-pointer %.3fx", idealGain, ptrGain)
	}
}

func TestFig12Shape(t *testing.T) {
	res := run(t, "fig12")
	cable := res.Table.Get("mean", "cable")
	cpack := res.Table.Get("mean", "cpack")
	bdi := res.Table.Get("mean", "bdi")
	if cable <= cpack {
		t.Fatalf("CABLE mean %.2f must beat CPACK %.2f", cable, cpack)
	}
	if cable/cpack < 1.3 {
		t.Fatalf("CABLE/CPACK = %.2f, want ≥1.3 (paper: 1.82)", cable/cpack)
	}
	if cpack < bdi*0.8 {
		t.Fatalf("CPACK %.2f should be ≥ BDI %.2f ballpark", cpack, bdi)
	}
	// Zero-dominant group (mcf, lbm in quick set) must be ≥10x for
	// CABLE and high for everyone.
	for _, zd := range []string{"mcf", "lbm"} {
		if v := res.Table.Get(zd, "cable"); !math.IsNaN(v) && v < 10 {
			t.Fatalf("%s cable = %.2f, want ≥10", zd, v)
		}
	}
}

func TestFig11NormalizedToCPack(t *testing.T) {
	res := run(t, "fig11")
	if v := res.Table.Get("gcc", "cpack"); math.Abs(v-1) > 1e-9 {
		t.Fatalf("cpack column must be 1 after normalization, got %v", v)
	}
	if res.Table.Get("mean", "cable") <= 1.2 {
		t.Fatalf("normalized CABLE mean %.2f, want >1.2", res.Table.Get("mean", "cable"))
	}
}

func TestFig13Shape(t *testing.T) {
	res := run(t, "fig13")
	if res.Table.Get("mean", "cable") <= res.Table.Get("mean", "cpack") {
		t.Fatal("coherence-link CABLE must beat CPACK on average")
	}
}

func TestFig15CooperativeShape(t *testing.T) {
	res := run(t, "fig15")
	cableGain := res.Table.Get("mean", "cable-multi4") / res.Table.Get("mean", "cable-single")
	gzipGain := res.Table.Get("mean", "gzip-multi4") / res.Table.Get("mean", "gzip-single")
	if cableGain <= gzipGain {
		t.Fatalf("cooperative co-run: CABLE gain %.3f must exceed gzip gain %.3f", cableGain, gzipGain)
	}
	if cableGain < 1.05 {
		t.Fatalf("CABLE should benefit from cooperative co-runs, got %.3f", cableGain)
	}
}

func TestFig16DestructiveShape(t *testing.T) {
	res := run(t, "fig16")
	gzip := res.Table.Get("mean", "gzip")
	cable := res.Table.Get("mean", "cable")
	if gzip >= 1.0 {
		t.Fatalf("gzip should suffer dictionary pollution: relative %.3f", gzip)
	}
	if cable <= gzip {
		t.Fatalf("CABLE %.3f must hold up better than gzip %.3f under pollution", cable, gzip)
	}
	if cable < 0.9 {
		t.Fatalf("CABLE should roughly maintain single-run ratios, got %.3f", cable)
	}
}

func TestFig17LatencyShape(t *testing.T) {
	res := run(t, "fig17")
	cpack := res.Table.Get("mean", "cpack")
	gzip := res.Table.Get("mean", "gzip")
	cable := res.Table.Get("mean", "cable")
	if !(cpack <= cable && cable <= gzip+0.05) {
		t.Fatalf("overhead should order cpack ≤ cable ≲ gzip: %.3f %.3f %.3f", cpack, cable, gzip)
	}
	if cable > 0.2 {
		t.Fatalf("CABLE mean overhead %.3f too high (paper ≈5%%)", cable)
	}
}

func TestFig18EnergyShape(t *testing.T) {
	res := run(t, "fig18")
	if v := res.Table.Get("mean", "cable-total"); v >= 1.0 {
		t.Fatalf("CABLE should reduce memory-subsystem energy, got %.3f of baseline", v)
	}
	if comp := res.Table.Get("mean", "cable-comp"); comp > 0.15 {
		t.Fatalf("compression energy %.3f of baseline — should be small", comp)
	}
	if link := res.Table.Get("mean", "base-link"); link < 0.05 {
		t.Fatalf("baseline link energy fraction %.3f — too small to matter", link)
	}
}

// TestFig19Shape covers both cache-size sweeps: CABLE leads gzip and
// CPACK at every point, never falls as the LLC (its dictionary) grows,
// and barely moves with the L4 ratio, because the dictionary is bounded
// by the smaller cache (paper: within ~1 %).
func TestFig19Shape(t *testing.T) {
	for _, id := range []string{"fig19a", "fig19b"} {
		res := run(t, id)
		var cables []float64
		for _, row := range res.Table.Rows() {
			cable := res.Table.Get(row, "cable")
			if gzip, cpack := res.Table.Get(row, "gzip"), res.Table.Get(row, "cpack"); cable <= gzip || cable <= cpack {
				t.Errorf("%s %s: CABLE %.3f must lead gzip %.3f and CPACK %.3f", id, row, cable, gzip, cpack)
			}
			cables = append(cables, cable)
		}
		switch id {
		case "fig19a":
			if !slices.IsSorted(cables) {
				t.Errorf("fig19a: CABLE %v falls as the LLC grows", cables)
			}
		case "fig19b":
			if lo, hi := slices.Min(cables), slices.Max(cables); hi > lo*1.03 {
				t.Errorf("fig19b: CABLE spans %.3f–%.3f across L4 ratios, want within 3%%", lo, hi)
			}
		}
	}
}

func TestFig20EngineOrdering(t *testing.T) {
	res := run(t, "fig20")
	oracle := res.Table.Get("mean", "oracle")
	lbe := res.Table.Get("mean", "lbe")
	cp128 := res.Table.Get("mean", "cpack128")
	if oracle <= lbe {
		t.Fatalf("ORACLE %.2f must top LBE %.2f", oracle, lbe)
	}
	if lbe <= cp128 {
		t.Fatalf("LBE %.2f must beat CPACK128 %.2f (pointer overhead)", lbe, cp128)
	}
}

func TestFig21GracefulDegradation(t *testing.T) {
	res := run(t, "fig21")
	rows := res.Table.Rows()
	smallest := res.Table.Get(rows[len(rows)-1], "relative")
	if smallest < 0.5 {
		t.Fatalf("1/2048x table keeps only %.2f of performance — not graceful", smallest)
	}
	if smallest > 1.02 {
		t.Fatalf("smaller table should not beat 2x: %.3f", smallest)
	}
	half := res.Table.Get("0.5x", "relative")
	if half < 0.85 {
		t.Fatalf("half-sized table at %.2f — should be within ~15%%", half)
	}
}

func TestFig22AccessCountResilient(t *testing.T) {
	res := run(t, "fig22")
	one := res.Table.Get("1", "relative")
	if one < 0.7 {
		t.Fatalf("1-access case %.2f, paper says within 80%% of 64", one)
	}
	six := res.Table.Get("6", "relative")
	if six < one {
		t.Fatalf("6 accesses (%.3f) should be ≥ 1 access (%.3f)", six, one)
	}
}

func TestFig23LinkWidthShape(t *testing.T) {
	res := run(t, "fig23")
	w16 := res.Table.Get("16-bit", "cable")
	w64 := res.Table.Get("64-bit", "cable")
	packed := res.Table.Get("64-bit-packed", "cable")
	if w64 >= w16 {
		t.Fatalf("64-bit flits %.2f should waste more than 16-bit %.2f", w64, w16)
	}
	if packed <= w64 {
		t.Fatalf("packed transport %.2f must recover padding vs %.2f", packed, w64)
	}
}

func TestTab3MatchesPaper(t *testing.T) {
	res := run(t, "tab3")
	check := func(row, col string, lo, hi float64) {
		v := res.Table.Get(row, col)
		if v < lo || v > hi {
			t.Errorf("%s/%s = %.3f, want in [%v, %v]", row, col, v, lo, hi)
		}
	}
	// Paper Table III: 1.76 / 3.32 / 2.50 % hash tables; 0.4 / 1.74 %
	// WMTs; 17/18/17-bit RemoteLIDs.
	check("off-chip buffer", "hash-table-%", 1.2, 2.4)
	check("on-chip cache", "hash-table-%", 2.5, 4.2)
	check("multi-chip LLC", "hash-table-%", 0.5, 3.0)
	check("off-chip buffer", "wmt-%", 0.2, 0.8)
	check("multi-chip LLC", "wmt-%", 1.0, 2.5)
	check("off-chip buffer", "remotelid-bits", 17, 17)
	check("on-chip cache", "remotelid-bits", 18, 18)
	check("multi-chip LLC", "remotelid-bits", 17, 17)
}

func TestTogglesReduced(t *testing.T) {
	res := run(t, "toggles")
	cable := res.Table.Get("mean", "cable")
	if cable <= 0 {
		t.Fatalf("CABLE should reduce toggles, got %.3f", cable)
	}
}

func TestHeadline(t *testing.T) {
	res := run(t, "headline")
	rel := res.Table.Get("cable vs cpack", "value")
	if rel < 1.3 {
		t.Fatalf("headline CABLE/CPACK %.2f, want ≥1.3", rel)
	}
}

func TestOnOffControl(t *testing.T) {
	res := run(t, "onoff")
	always := res.Table.Get("mean", "always-on-loss")
	adaptive := res.Table.Get("mean", "adaptive-loss")
	if adaptive > always {
		t.Fatalf("adaptive loss %.3f should not exceed always-on %.3f", adaptive, always)
	}
}

func TestFig14aThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep")
	}
	res := run(t, "fig14a")
	cable := res.Table.Get("mean", "cable")
	cpack := res.Table.Get("mean", "cpack")
	if cable <= 1.0 {
		t.Fatalf("CABLE mean speedup %.2f at 2048 threads, want >1", cable)
	}
	if cable < cpack {
		t.Fatalf("CABLE %.2f should be at least CPACK %.2f", cable, cpack)
	}
	// Memory-bound gains most; compute-bound ~flat (paper Fig 14a).
	if mcf, pov := res.Table.Get("mcf", "cable"), res.Table.Get("povray", "cable"); mcf <= pov {
		t.Fatalf("mcf %.2f should out-speed povray %.2f", mcf, pov)
	}
}

func TestFig14bThreadSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep")
	}
	res := run(t, "fig14b")
	rows := res.Table.Rows()
	lo := res.Table.Get(rows[0], "cable")
	hi := res.Table.Get(rows[len(rows)-1], "cable")
	if hi <= lo {
		t.Fatalf("speedup should grow with thread count: %.2f → %.2f", lo, hi)
	}
}

func TestAblationShape(t *testing.T) {
	res := run(t, "ablation")
	base := res.Table.Get("baseline (17b LIDs, depth 2, 2 sigs)", "ratio")
	tags := res.Table.Get("40b tag pointers (no WMT)", "ratio")
	if tags >= base {
		t.Fatalf("tag pointers %.3f should cost vs LIDs %.3f (§III-D)", tags, base)
	}
	for _, row := range []string{"bucket depth 1", "bucket depth 4", "1 insert signatures", "4 insert signatures"} {
		v := res.Table.Get(row, "ratio")
		if v < base*0.7 || v > base*1.3 {
			t.Fatalf("%s = %.3f wildly off baseline %.3f", row, v, base)
		}
	}
}
