package stats

import (
	"fmt"
	"math"
	"strings"
)

// ChartAll renders every column as a grouped chart: per row, one bar
// per column, labeled — useful for scheme-comparison figures.
func (t *Table) ChartAll() string {
	max := 0.0
	for _, r := range t.rows {
		for _, v := range t.data[r] {
			if !math.IsNaN(v) && v > max {
				max = v
			}
		}
	}
	if max <= 0 {
		return "(no data)\n"
	}
	colW := 8
	for _, c := range t.Columns {
		if len(c) > colW {
			colW = len(c)
		}
	}
	const width = 40
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%s\n", r)
		for i, c := range t.Columns {
			v := t.data[r][i]
			if math.IsNaN(v) {
				continue
			}
			n := int(v / max * width)
			if n < 0 {
				n = 0
			}
			fmt.Fprintf(&b, "  %-*s |%-*s %8.3f\n", colW, c, width, strings.Repeat("#", n), v)
		}
	}
	return b.String()
}
