package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"cable/internal/obs"
)

// TestRunOrderIndependence: a recycled structure (cache backing, CABLE
// table, backing store, gzip window, write-version map) carries nothing
// from one cell into the next. In one process, with the memo off and one
// worker, the quick Fig 12, Fig 13 and Fig 17 run in paper order and
// then reversed, so each cell starts from pools a different cell left
// warm; every table, its notes and the experiment's -metrics dump must
// be byte-identical. -parallel and memo on/off identity cover
// scheduling; this covers what the pools hand over.
func TestRunOrderIndependence(t *testing.T) {
	opt := Options{Quick: true, Parallelism: 1, DisableCellMemo: true}
	runInOrder := func(ids []string) map[string]string {
		out := map[string]string{}
		for _, id := range ids {
			obs.Default().Reset()
			res, err := Run(id, opt)
			if err != nil {
				t.Fatal(err)
			}
			var dump bytes.Buffer
			if err := obs.Default().WriteJSON(&dump, false); err != nil {
				t.Fatal(err)
			}
			out[id] = res.Table.String() + strings.Join(res.Notes, "\n") + "\n" + dump.String()
		}
		return out
	}
	paper := []string{"fig12", "fig13", "fig17"}
	first := runInOrder(paper)
	reversed := slices.Clone(paper)
	slices.Reverse(reversed)
	second := runInOrder(reversed)
	for _, id := range paper {
		if first[id] != second[id] {
			t.Errorf("%s differs between paper and reversed order:\n--- paper ---\n%s\n--- reversed ---\n%s", id, first[id], second[id])
		}
	}
}
