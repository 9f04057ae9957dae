package workload

import (
	"bytes"
	"testing"

	"cable/internal/sig"
)

func TestSuiteComplete(t *testing.T) {
	if len(All()) != 29 {
		t.Fatalf("suite has %d benchmarks, want 29 (full SPEC CPU2006)", len(All()))
	}
	seen := map[string]bool{}
	ints, fps := 0, 0
	for _, s := range All() {
		if seen[s.Name] {
			t.Fatalf("duplicate benchmark %q", s.Name)
		}
		seen[s.Name] = true
		switch s.Class {
		case "int":
			ints++
		case "fp":
			fps++
		default:
			t.Fatalf("%s: bad class %q", s.Name, s.Class)
		}
	}
	if ints != 12 || fps != 17 {
		t.Fatalf("int/fp split = %d/%d, want 12/17", ints, fps)
	}
}

func TestNonTrivialExcludesZeroDominant(t *testing.T) {
	for _, s := range NonTrivial() {
		if s.ZeroDominant {
			t.Fatalf("%s is zero-dominant but in NonTrivial()", s.Name)
		}
	}
	if len(NonTrivial()) >= len(All()) {
		t.Fatal("zero-dominant group is empty")
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("mcf")
	if err != nil || s.Name != "mcf" {
		t.Fatalf("ByName(mcf) = %+v, %v", s, err)
	}
	if !s.ZeroDominant {
		t.Fatal("mcf should be zero-dominant (Fig 12 right group)")
	}
	if _, err := ByName("doom"); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}

func TestMixesUseKnownBenchmarks(t *testing.T) {
	for i, mix := range Mixes {
		for _, name := range mix {
			if _, err := ByName(name); err != nil {
				t.Fatalf("MIX%d references %q: %v", i, name, err)
			}
		}
	}
}

func TestSpecSanity(t *testing.T) {
	for _, s := range All() {
		if s.ZeroFrac+s.ProtoFrac > 1 {
			t.Errorf("%s: ZeroFrac+ProtoFrac = %v > 1", s.Name, s.ZeroFrac+s.ProtoFrac)
		}
		if s.HotFrac+s.StreamFrac > 1 {
			t.Errorf("%s: HotFrac+StreamFrac = %v > 1", s.Name, s.HotFrac+s.StreamFrac)
		}
		if s.WorkingSetLines <= 0 || s.HotLines <= 0 || s.ProtoCount <= 0 ||
			s.ObjLines <= 0 || s.PhaseLen <= 0 || s.GapInstrs <= 0 {
			t.Errorf("%s: non-positive parameter in %+v", s.Name, s)
		}
		if s.HotLines > s.WorkingSetLines {
			t.Errorf("%s: hot set larger than working set", s.Name)
		}
	}
}

func TestLineDataDeterministic(t *testing.T) {
	a, _ := New("gcc", 0, 0)
	b, _ := New("gcc", 0, 0)
	for addr := uint64(0); addr < 200; addr++ {
		if !bytes.Equal(a.LineData(addr), b.LineData(addr)) {
			t.Fatalf("addr %d: LineData not deterministic", addr)
		}
	}
}

func TestLineDataRespectsAddrBase(t *testing.T) {
	a, _ := New("gcc", 0, 0)
	b, _ := New("gcc", 0, 1<<30)
	for addr := uint64(0); addr < 100; addr++ {
		if !bytes.Equal(a.LineData(addr), b.LineData(addr+1<<30)) {
			t.Fatalf("addr %d: content should be relative to addrBase", addr)
		}
	}
}

func TestCopiesSimilarNotIdentical(t *testing.T) {
	// Cooperative multiprogram premise (§VI-C): co-run copies share
	// object layouts (same prototypes) but differ in details.
	a, _ := New("dealII", 0, 0)
	b, _ := New("dealII", 1, 1<<30)
	identical, similar := 0, 0
	ex := sig.NewExtractor(LineSize, 1)
	for addr := uint64(0); addr < 500; addr++ {
		la := a.LineData(addr)
		lb := b.LineData(addr + 1<<30)
		if bytes.Equal(la, lb) {
			identical++
			continue
		}
		sa := ex.SearchSignatures(la, 16)
		set := map[sig.Signature]bool{}
		for _, s := range sa {
			set[s] = true
		}
		shared := 0
		for _, s := range ex.SearchSignatures(lb, 16) {
			if set[s] {
				shared++
			}
		}
		if shared >= 4 {
			similar++
		}
	}
	// Cross-copy sharing: input-determined lines are identical (the
	// §VI-C cooperative-sharing source), execution-dependent ones are
	// similar-but-distinct; together they must dominate.
	if identical+similar < 250 {
		t.Fatalf("copies share content on only %d+%d of 500 lines", identical, similar)
	}
	if similar < 50 {
		t.Fatalf("only %d/500 lines are similar-but-distinct", similar)
	}
	if identical > 450 {
		t.Fatalf("%d/500 lines identical across copies — too much", identical)
	}
}

func TestZeroDominantContent(t *testing.T) {
	g, _ := New("mcf", 0, 0)
	zeroish := 0
	for addr := uint64(0); addr < 1000; addr++ {
		if sig.NonTrivialWords(g.LineData(addr)) <= 2 {
			zeroish++
		}
	}
	if zeroish < 600 {
		t.Fatalf("mcf: only %d/1000 lines are zero-dominated", zeroish)
	}
}

func TestPrototypeSimilarityAcrossAddresses(t *testing.T) {
	// CABLE's premise: similar lines at unrelated addresses. dealII
	// has ProtoFrac 0.6; distinct far-apart addresses must frequently
	// share signatures.
	g, _ := New("dealII", 0, 0)
	ex := sig.NewExtractor(LineSize, 1)
	sigOwners := map[sig.Signature]int{}
	for addr := uint64(0); addr < 2000; addr++ {
		for _, s := range ex.InsertSignatures(g.LineData(addr * 37)) {
			sigOwners[s]++
		}
	}
	sharedSigs := 0
	for _, n := range sigOwners {
		if n >= 2 {
			sharedSigs++
		}
	}
	if sharedSigs < 50 {
		t.Fatalf("only %d signatures shared across addresses", sharedSigs)
	}
}

func TestAccessStreamShape(t *testing.T) {
	g, _ := New("omnetpp", 0, 0)
	writes, total := 0, 20000
	seen := map[uint64]int{}
	var gaps int64
	for i := 0; i < total; i++ {
		a := g.Next()
		if a.Write {
			writes++
		}
		if a.LineAddr < g.AddrBase() || a.LineAddr >= g.AddrBase()+uint64(g.Spec().WorkingSetLines) {
			t.Fatalf("access %#x outside working set", a.LineAddr)
		}
		if a.Gap < 1 {
			t.Fatalf("gap %d < 1", a.Gap)
		}
		gaps += int64(a.Gap)
		seen[a.LineAddr]++
	}
	wf := float64(writes) / float64(total)
	if wf < g.Spec().WriteFrac-0.05 || wf > g.Spec().WriteFrac+0.05 {
		t.Fatalf("write fraction %.3f, spec %v", wf, g.Spec().WriteFrac)
	}
	meanGap := float64(gaps) / float64(total)
	want := float64(g.Spec().GapInstrs)
	if meanGap < want*0.8 || meanGap > want*1.2 {
		t.Fatalf("mean gap %.1f, want ≈%v", meanGap, want)
	}
	// Locality: some lines must be touched many times (hot set).
	max := 0
	for _, n := range seen {
		if n > max {
			max = n
		}
	}
	if max < 3 {
		t.Fatal("no reuse in access stream")
	}
}

func TestPhasesShiftRegions(t *testing.T) {
	g, _ := New("gcc", 0, 0)
	firstPhase := map[uint64]bool{}
	for i := 0; i < g.Spec().PhaseLen/2; i++ {
		firstPhase[g.Next().LineAddr] = true
	}
	// Jump several phases ahead.
	for i := 0; i < 4*g.Spec().PhaseLen; i++ {
		g.Next()
	}
	overlap, count := 0, 0
	for i := 0; i < g.Spec().PhaseLen/2; i++ {
		if firstPhase[g.Next().LineAddr] {
			overlap++
		}
		count++
	}
	if overlap > count*3/4 {
		t.Fatalf("phases fully overlap (%d/%d) — no phase behavior", overlap, count)
	}
}

func TestInstancesDesynchronize(t *testing.T) {
	a, _ := New("gcc", 0, 0)
	b, _ := New("gcc", 1, 0)
	// After ¾ of a phase, instance 1 (offset by half a phase) has
	// crossed into the next phase while instance 0 has not.
	for i := 0; i < a.Spec().PhaseLen*3/4; i++ {
		a.Next()
		b.Next()
	}
	if a.phase() == b.phase() {
		t.Fatalf("instances synchronized: both in phase %d", a.phase())
	}
}

// BenchmarkLineData is the cost of deriving one line; every call does.
func BenchmarkLineData(b *testing.B) {
	g, _ := New("dealII", 0, 0)
	for i := 0; i < b.N; i++ {
		g.LineData(uint64(i))
	}
}

// TestLineDataMissAllocs pins LineData at zero allocations from the
// first call: derivation reseeds the generator's scratch rng in place
// and writes into the generator's own buffer.
func TestLineDataMissAllocs(t *testing.T) {
	for _, name := range []string{"dealII", "mcf", "lbm"} {
		g, _ := New(name, 0, 0)
		addr := uint64(0)
		if avg := testing.AllocsPerRun(500, func() {
			addr++
			g.LineData(addr)
		}); avg != 0 {
			t.Errorf("%s: LineData allocated %.2f times", name, avg)
		}
	}
}

func BenchmarkNext(b *testing.B) {
	g, _ := New("mcf", 0, 0)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func TestValueModelFamilies(t *testing.T) {
	// Each content family must have its distinguishing statistical
	// signature; this is what the per-benchmark calibration rests on.
	byModel := map[ValueModel]string{
		ValuePointer: "mcf", ValueInt: "gobmk", ValueFP: "lbm",
		ValueText: "bzip2", ValueRandom: "namd",
	}
	for model, bench := range byModel {
		s, err := ByName(bench)
		if err != nil || s.Model != model {
			t.Fatalf("%s should be model %v", bench, model)
		}
	}
}

func TestTextLinesAreASCII(t *testing.T) {
	g := NewFromSpec(Spec{
		Name: "texty", Class: "int", Model: ValueText,
		ProtoCount: 4, ObjLines: 1, MutateWords: 0,
		WorkingSetLines: 1024, HotLines: 16, PhaseLen: 100, GapInstrs: 1,
	}, 0, 0)
	line := g.LineData(500) // beyond Zero/Proto fractions (both 0) → fresh
	for i, b := range line {
		if b >= 0x80 {
			t.Fatalf("byte %d = %#x not ASCII in text model", i, b)
		}
	}
}

func TestFPLinesShareExponents(t *testing.T) {
	g := NewFromSpec(Spec{
		Name: "fpy", Class: "fp", Model: ValueFP,
		ProtoCount: 4, ObjLines: 1, MutateWords: 0,
		WorkingSetLines: 1024, HotLines: 16, PhaseLen: 100, GapInstrs: 1,
	}, 0, 0)
	line := g.LineData(321)
	// All eight doubles come from base + i·delta: top bytes repeat.
	top := line[7]
	same := 0
	for i := 7; i < 64; i += 8 {
		if line[i] == top {
			same++
		}
	}
	if same < 6 {
		t.Fatalf("only %d/8 doubles share the exponent byte", same)
	}
}

func TestPointerLinesShareBase(t *testing.T) {
	g := NewFromSpec(Spec{
		Name: "ptr", Class: "int", Model: ValuePointer,
		ProtoCount: 4, ObjLines: 1, MutateWords: 0,
		WorkingSetLines: 1024, HotLines: 16, PhaseLen: 100, GapInstrs: 1,
	}, 0, 0)
	line := g.LineData(99)
	nonNull := 0
	for i := 0; i < 64; i += 8 {
		hi := uint32(line[i+4]) | uint32(line[i+5])<<8 | uint32(line[i+6])<<16 | uint32(line[i+7])<<24
		if hi != 0 {
			nonNull++
			if line[i+5] != 0x7F {
				t.Fatalf("pointer %d lacks the shared heap base: %x", i/8, line[i:i+8])
			}
		}
	}
	if nonNull < 4 {
		t.Fatalf("only %d non-null pointers", nonNull)
	}
}

func TestByteShiftedCopies(t *testing.T) {
	// bzip2 has ByteShiftFrac 0.5: a good fraction of proto copies
	// must be byte-shifted (defeating word-aligned matching).
	g, _ := New("bzip2", 0, 0)
	ex := 0
	for addr := uint64(0); addr < 4000; addr++ {
		line := g.LineData(addr)
		_ = line
		ex++
	}
	if ex == 0 {
		t.Fatal("unreachable")
	}
}
