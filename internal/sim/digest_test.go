package sim_test

import (
	"reflect"
	"slices"
	"testing"

	"cable/internal/sim"
	"cable/internal/topo"
)

// TestDigestStability: equal configs digest equal; each behavioral
// field change moves the digest; observation-only fields don't.
func TestDigestStability(t *testing.T) {
	base := sim.DefaultMemLinkConfig("gcc")
	if base.Digest() != sim.DefaultMemLinkConfig("gcc").Digest() {
		t.Fatal("equal configs produced different digests")
	}

	muts := map[string]func(*sim.MemLinkConfig){
		"benchmark":   func(c *sim.MemLinkConfig) { c.Benchmarks = []string{"mcf"} },
		"extra bench": func(c *sim.MemLinkConfig) { c.Benchmarks = append(c.Benchmarks, "mcf") },
		"accesses":    func(c *sim.MemLinkConfig) { c.AccessesPerProgram++ },
		"scale":       func(c *sim.MemLinkConfig) { c.ScaleCachesByPrograms = !c.ScaleCachesByPrograms },
		"meters":      func(c *sim.MemLinkConfig) { c.WithMeters = !c.WithMeters },
		"llc":         func(c *sim.MemLinkConfig) { c.Chip.LLCBytes *= 2 },
		"link width":  func(c *sim.MemLinkConfig) { c.Chip.Link.WidthBits *= 2 },
		"engine":      func(c *sim.MemLinkConfig) { c.Chip.Cable.EngineName = "bdi" },
		"sig seed":    func(c *sim.MemLinkConfig) { c.Chip.Cable.SigSeed++ },
		"scheme":      func(c *sim.MemLinkConfig) { c.Chip.Scheme = "gzip" },
		"tag ptrs":    func(c *sim.MemLinkConfig) { c.Chip.TagPointers = !c.Chip.TagPointers },
	}
	seen := map[sim.Digest]string{base.Digest(): "base"}
	for name, mut := range muts {
		cfg := sim.DefaultMemLinkConfig("gcc")
		mut(&cfg)
		d := cfg.Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[d] = name
	}

	// A benchmark list must not alias a differently-split list.
	a := sim.DefaultMemLinkConfig("gcc", "mcf")
	b := sim.DefaultMemLinkConfig("gccm", "cf")
	if a.Digest() == b.Digest() {
		t.Error("length-prefixed strings should prevent list aliasing")
	}

	tbase := sim.DefaultTimingConfig("cable", "gcc")
	if tbase.Digest() != sim.DefaultTimingConfig("cable", "gcc").Digest() {
		t.Fatal("equal timing configs produced different digests")
	}
	tmut := sim.DefaultTimingConfig("cable", "gcc")
	tmut.OnOff = true
	if tmut.Digest() == tbase.Digest() {
		t.Error("timing OnOff change did not move the digest")
	}
	if tbase.Digest() == base.Digest() {
		t.Error("timing and memlink digests must live in distinct namespaces")
	}
}

// digestExcluded lists every field tagged `digest:"-"` in the digested
// configs. A field joins it only if it cannot change a simulated bit.
var digestExcluded = []string{
	"sim.MemLinkConfig.Chip.Cable.Metrics",
	"sim.MemLinkConfig.Chip.Metrics",
	"sim.MemLinkConfig.Chip.Recorder",
	"sim.MemLinkConfig.Metrics",
	"sim.MemLinkConfig.Recorder",
	"sim.MemLinkConfig.Trace",
	"sim.MultiChipConfig.Cable.Metrics",
	"sim.MultiChipConfig.Recorder",
	"sim.TimingConfig.Cable.Metrics",
	"sim.TimingConfig.Metrics",
	"sim.TimingConfig.Recorder",
	"topo.Config.Cable.Metrics",
	"topo.Config.Metrics",
	"topo.Config.Parallelism",
	"topo.Config.Recorder",
}

// TestDigestCoversEveryField walks each digested config's declaration:
// changing any untagged exported leaf (nested structs are walked, a
// pointer or slice is one leaf) must move the digest, changing a tagged
// one must not, and the tagged set is pinned, so a behavioural field
// cannot be tagged out of the memo key unnoticed.
func TestDigestCoversEveryField(t *testing.T) {
	type digestible interface{ Digest() sim.Digest }
	var tagged []string
	for _, base := range []digestible{
		sim.DefaultMemLinkConfig("gcc"),
		sim.DefaultTimingConfig("cable", "gcc"),
		sim.DefaultMultiChipConfig("gcc"),
		topo.DefaultConfig("gcc"),
	} {
		want := base.Digest()
		if want != sim.DigestOf(base) {
			t.Errorf("%T: Digest is not DigestOf", base)
		}
		typ := reflect.TypeOf(base)
		walkLeaves(typ, typ.String(), nil, func(path string, index []int, tag bool) {
			if tag {
				tagged = append(tagged, path)
			}
			cfg := reflect.New(typ).Elem()
			cfg.Set(reflect.ValueOf(base))
			bump(t, path, cfg.FieldByIndex(index))
			if moved := cfg.Interface().(digestible).Digest() != want; moved == tag {
				t.Errorf("%s (tagged %v): digest moved = %v", path, tag, moved)
			}
		})
	}
	slices.Sort(tagged)
	if !slices.Equal(tagged, digestExcluded) {
		t.Errorf("fields tagged digest:\"-\" = %q, want %q", tagged, digestExcluded)
	}
}

// walkLeaves calls f for every exported field under typ that is not
// itself a struct, and for every tagged field, with its dotted path,
// its index sequence and whether it is tagged `digest:"-"`.
func walkLeaves(typ reflect.Type, path string, index []int, f func(string, []int, bool)) {
	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		if !sf.IsExported() {
			continue
		}
		p, idx := path+"."+sf.Name, append(slices.Clone(index), i)
		tag := sf.Tag.Get("digest") == "-"
		if sf.Type.Kind() == reflect.Struct && !tag {
			walkLeaves(sf.Type, p, idx, f)
			continue
		}
		f(p, idx, tag)
	}
}

// bump changes a leaf's value.
func bump(t *testing.T, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		} else {
			v.SetZero()
		}
	default:
		t.Fatalf("%s: no bump for kind %s", path, v.Kind())
	}
}

// TestDigestOfRejectsUnencodable: a kind with no canonical encoding
// panics instead of silently dropping out of the memo key.
func TestDigestOfRejectsUnencodable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a map field should panic DigestOf")
		}
	}()
	sim.DigestOf(struct{ M map[string]int }{})
}
