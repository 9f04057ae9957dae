package experiments

import (
	"testing"

	"cable/internal/golden"
)

// TestGoldenTables pins the rendered quick-scale Fig 12 and Fig 13
// tables — every baseline column (BDI, C-Pack, LBE, gzip) beside
// CABLE's — so a change to a meter or an engine that moves a reported
// number fails `go test`, not a hand-run cmp (see golden.Check for
// regenerating). The breakdown row was recorded while the table was
// still filled from the decision tracer: it pins that HomeStats tells
// the same story.
func TestGoldenTables(t *testing.T) {
	got := map[string]string{}
	for _, id := range []string{"fig12", "fig13", "breakdown"} {
		res := run(t, id)
		got[id+"/quick"] = golden.Hash(t, struct {
			Table string
			Notes []string
		}{res.Table.String(), res.Notes})
	}
	golden.Check(t, "testdata/golden.json", got)
}
