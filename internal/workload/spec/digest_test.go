package spec_test

import (
	"strings"
	"testing"

	"cable/internal/sim"
	"cable/internal/workload/spec"
)

// foldJSON is a two-client mix with one field of each kind a variant
// below changes: the seed, a phase boundary and an arrival parameter.
const foldJSON = `{"version": 1, "name": "test-mix", "seed": 7, "mean_gap": 50, "clients": [
  {"id": "a", "rate_fraction": 0.7, "arrival": {"process": "poisson"}, "content": {"base": "gcc"},
   "phases": [{"at": 0.5, "content": {"base": "omnetpp", "working_set_lines": 4096, "hot_lines": 512}}]},
  {"id": "b", "rate_fraction": 0.3, "arrival": {"process": "gamma", "cv": 3}, "content": {"base": "mcf", "stream_frac": 0.5}}]}`

// TestFoldDistinguishesSpecs: the cell memo's digest fold must separate
// specs differing in any semantic field, and equal specs must share it.
func TestFoldDistinguishesSpecs(t *testing.T) {
	digest := func(src string) sim.Digest {
		t.Helper()
		w, err := spec.Parse([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		return sim.DigestOf(w)
	}
	base := digest(foldJSON)
	if base != digest(foldJSON) {
		t.Fatal("identical specs folded differently")
	}
	for _, v := range [][2]string{
		{`"seed": 7`, `"seed": 8`},
		{`"at": 0.5`, `"at": 0.6`},
		{`"cv": 3`, `"cv": 2`},
	} {
		if digest(strings.Replace(foldJSON, v[0], v[1], 1)) == base {
			t.Errorf("%s → %s folded identically to base", v[0], v[1])
		}
	}
}
