package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"

	"cable/internal/obs"
)

// LineSize is the cache-line granularity of generated content.
const LineSize = 64

// Access is one LLC-level memory reference.
type Access struct {
	// LineAddr is the line address (byte address / 64).
	LineAddr uint64
	// Write marks stores.
	Write bool
	// Gap is the number of non-memory instructions preceding this
	// access (1 CPI each on the Table IV in-order core).
	Gap int
}

// Generator produces the access stream and memory contents of one
// benchmark instance. Instances of the same benchmark share prototype
// pools (object layouts are a property of the program, not the copy),
// so SPECrate-style co-runs exhibit the cross-program similarity the
// cooperative study measures — while per-copy mutations keep contents
// similar rather than identical.
type Generator struct {
	spec     Spec
	instance int
	addrBase uint64
	seed     uint64 // nameSeed(spec.Name), cached off the hot path

	rng       *rand.Rand
	protos    [][]byte
	accesses  uint64
	streamPos uint64

	// line is the one buffer LineData derives into. There is no cache
	// of materialized lines here: mem.Store keeps every line it has
	// filled, so a simulator asks for an address at most once (DESIGN.md
	// "Memoization").
	line [LineSize]byte

	// lineRng is materializeInto's scratch rng, reseeded per line; its
	// lazySource makes that O(1).
	lineRng *rand.Rand

	// materialized counts LineData calls. A pure function of the access
	// stream, so it is non-volatile and survives byte-identical metric
	// comparisons at any parallelism. Its registered name,
	// workload.linecache_misses, dates from the line cache this package
	// once had: the frozen benchmark harness reads it by that name.
	materialized *obs.Counter
	shard        uint32
}

// splitmix64 is a fast deterministic scrambler for per-address seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func nameSeed(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// New builds a generator for a named benchmark. instance distinguishes
// co-running copies; addrBase places its address space.
func New(name string, instance int, addrBase uint64) (*Generator, error) {
	return NewIn(name, instance, addrBase, nil)
}

// NewIn is New with an explicit metrics registry (nil means the
// process-default registry).
func NewIn(name string, instance int, addrBase uint64, reg *obs.Registry) (*Generator, error) {
	spec, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return NewFromSpecIn(spec, instance, addrBase, reg), nil
}

// NewFromSpecIn builds a generator from an explicit spec; its
// lines-materialized counter reports into reg (nil means the
// process-default registry). Memoized experiment cells run against
// private registries so their metric deltas can be replayed
// deterministically.
func NewFromSpecIn(spec Spec, instance int, addrBase uint64, reg *obs.Registry) *Generator {
	g := &Generator{
		spec:     spec,
		instance: instance,
		addrBase: addrBase,
		seed:     nameSeed(spec.Name),
		rng:      rand.New(rand.NewSource(int64(nameSeed(spec.Name)) + int64(instance)*7919)),
		lineRng:  rand.New(newLazySource(0)),

		materialized: reg.Counter("workload.linecache_misses"),
		shard:        obs.NextShard(),
	}
	// Prototypes depend only on the benchmark: every copy lays out
	// the same object types.
	protoRng := rand.New(rand.NewSource(int64(nameSeed(spec.Name)) ^ 0x70726f746f))
	g.protos = make([][]byte, spec.ProtoCount)
	for i := range g.protos {
		g.protos[i] = freshLine(spec.Model, protoRng)
	}
	return g
}

// Spec returns the benchmark parameters.
func (g *Generator) Spec() Spec { return g.spec }

// AddrBase returns the base line address of this instance's space.
func (g *Generator) AddrBase() uint64 { return g.addrBase }

// Instance returns the co-run copy index this generator was built with.
func (g *Generator) Instance() int { return g.instance }

// freshLine generates a unique line in the given content family.
func freshLine(m ValueModel, rng *rand.Rand) []byte {
	line := make([]byte, LineSize)
	freshLineInto(line, m, rng)
	return line
}

// freshLineInto derives a fresh line into line, which may hold stale
// slot contents and is zeroed first (the value models assume a zeroed
// canvas, e.g. null-pointer gaps).
func freshLineInto(line []byte, m ValueModel, rng *rand.Rand) {
	for i := range line {
		line[i] = 0
	}
	switch m {
	case ValuePointer:
		base := uint64(0x00007F00<<32) | uint64(rng.Intn(1<<20))<<12
		for i := 0; i < LineSize; i += 8 {
			if rng.Intn(5) == 0 {
				continue // null pointer
			}
			binary.LittleEndian.PutUint64(line[i:], base|uint64(rng.Intn(1<<16))<<3)
		}
	case ValueInt:
		for i := 0; i < LineSize; i += 4 {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5, 6: // small counter values
				binary.LittleEndian.PutUint32(line[i:], uint32(rng.Intn(256)))
			case 7, 8: // medium values
				binary.LittleEndian.PutUint32(line[i:], uint32(rng.Intn(1<<20)))
			default: // flags / sentinels
				binary.LittleEndian.PutUint32(line[i:], rng.Uint32())
			}
		}
	case ValueFP:
		base := (1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(6)))
		delta := base / 256
		for i := 0; i < LineSize; i += 8 {
			v := base + float64(i/8)*delta + rng.Float64()*delta/16
			binary.LittleEndian.PutUint64(line[i:], math.Float64bits(v))
		}
	case ValueText:
		syllables := []string{"th", "er", "on", "an", "re", "he", "in", "ed", "nd", "ha"}
		pos := 0
		for pos < LineSize {
			s := syllables[rng.Intn(len(syllables))]
			if rng.Intn(4) == 0 {
				s = " "
			}
			for i := 0; i < len(s) && pos < LineSize; i++ {
				line[pos] = s[i]
				pos++
			}
		}
	case ValueRandom:
		rng.Read(line)
	}
}

// zeroLineInto derives a zero-dominated line into line, which every
// scheme compresses well (the Fig 12 right group's traffic): usually
// all zero, sometimes with one or two small values.
func zeroLineInto(line []byte, rng *rand.Rand) {
	for i := range line {
		line[i] = 0
	}
	if rng.Intn(4) > 0 {
		return
	}
	for k := 1 + rng.Intn(2); k > 0; k-- {
		off := rng.Intn(LineSize/4) * 4
		binary.LittleEndian.PutUint32(line[off:], uint32(rng.Intn(1<<10)))
	}
}

// LineData materializes the memory contents of lineAddr. Content is a
// pure function of (benchmark, relative address, instance), so backing
// stores can fill lazily and co-run copies agree on structure.
//
// The returned slice is the generator's one line buffer: it is
// read-only and valid until this generator's next LineData call.
// Callers that retain line contents (backing stores, caches) must
// copy; the simulators all do.
func (g *Generator) LineData(lineAddr uint64) []byte {
	g.materialized.Inc(g.shard)
	g.materializeInto(g.line[:], lineAddr)
	return g.line[:]
}

// materializeInto is the pure derivation behind LineData: it derives
// the contents of lineAddr into dst (LineSize bytes, stale contents
// allowed — every path fully overwrites). Each (*rand.Rand).Seed below
// stands for a fresh rand.New(rand.NewSource(seed)): lazySource yields
// the stdlib stream and Seed also resets Read state. No path returns to
// the first seed's stream after the second Seed, so one scratch rng
// serves both.
func (g *Generator) materializeInto(dst []byte, lineAddr uint64) {
	rel := lineAddr - g.addrBase
	h := splitmix64(g.seed ^ rel)
	u := unit(h)
	rng := g.lineRng
	rng.Seed(int64(splitmix64(h ^ uint64(g.instance)*0x9E37)))
	switch {
	case u < g.spec.ZeroFrac:
		zeroLineInto(dst, rng)
	case u < g.spec.ZeroFrac+g.spec.ProtoFrac:
		objID := rel / uint64(g.spec.ObjLines)
		oh := splitmix64(g.seed ^ objID ^ 0x6F626A)
		proto := g.protos[oh%uint64(len(g.protos))]
		copy(dst, proto)
		// Copies carry 0..MutateWords edits: many object copies are
		// byte-identical to their prototype in most fields. A majority
		// of lines are input-determined (identical across SPECrate
		// copies at the same relative address — the cross-program
		// sharing the cooperative study measures, §VI-C); the rest are
		// execution-dependent and differ per instance.
		if unit(splitmix64(h^0xC0DE)) < 0.6 {
			rng.Seed(int64(splitmix64(h ^ 0x1D3)))
		}
		for k := rng.Intn(g.spec.MutateWords + 1); k > 0; k-- {
			off := rng.Intn(LineSize/4) * 4
			binary.LittleEndian.PutUint32(dst[off:], rng.Uint32())
		}
		if unit(splitmix64(oh^0x73686966)) < g.spec.ByteShiftFrac {
			shift := 1 + int(oh%3)
			var tmp [LineSize]byte
			copy(tmp[shift:], dst)
			copy(tmp[:shift], dst[LineSize-shift:])
			copy(dst, tmp[:])
		}
	default:
		freshLineInto(dst, g.spec.Model, rng)
		if g.spec.ZeroDominant {
			sparsify(dst, rng)
		}
	}
}

// sparsify zeroes most of a line: the non-zero traffic of the
// zero-dominant group is sparse structures (e.g. mcf's arc nodes), so
// even its "fresh" lines compress well everywhere (Fig 12 right group).
func sparsify(line []byte, rng *rand.Rand) {
	for off := 0; off < LineSize; off += 4 {
		if rng.Intn(4) != 0 {
			for b := 0; b < 4; b++ {
				line[off+b] = 0
			}
		}
	}
}

// streamRegionLines is the span one phase streams over.
func (g *Generator) streamRegionLines() uint64 {
	r := uint64(g.spec.WorkingSetLines / 8)
	if r == 0 {
		r = 1
	}
	return r
}

// phase returns the current program phase; co-run instances are offset
// by half a phase so copies desynchronize, as real SPECrate runs do
// (§VI-C: "threads can desynchronize and execute dissimilar phases").
func (g *Generator) phase() uint64 {
	return (g.accesses + uint64(g.instance)*uint64(g.spec.PhaseLen)/2) / uint64(g.spec.PhaseLen)
}

// Next produces the next LLC-level access.
func (g *Generator) Next() Access {
	g.accesses++
	ws := uint64(g.spec.WorkingSetLines)
	phase := g.phase()
	var rel uint64
	u := g.rng.Float64()
	switch {
	case u < g.spec.StreamFrac:
		region := g.streamRegionLines()
		base := (phase * region) % ws
		rel = (base + g.streamPos%region) % ws
		g.streamPos++
	case u < g.spec.StreamFrac+g.spec.HotFrac:
		// The hot set is persistent (program globals and top-level
		// structures live at fixed addresses across phases); this is
		// also where co-run copies overlap (§VI-C).
		rel = uint64(g.rng.Intn(g.spec.HotLines))
	default:
		rel = uint64(g.rng.Intn(g.spec.WorkingSetLines))
	}
	gap := 1
	if g.spec.GapInstrs > 0 {
		gap = 1 + g.rng.Intn(2*g.spec.GapInstrs)
	}
	return Access{
		LineAddr: g.addrBase + rel,
		Write:    g.rng.Float64() < g.spec.WriteFrac,
		Gap:      gap,
	}
}
