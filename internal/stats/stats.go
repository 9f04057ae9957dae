// Package stats provides the accumulators and table formatting used by
// the experiment drivers to report paper-style results.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Ratio tracks an uncompressed/compressed pair.
type Ratio struct {
	SourceBits uint64
	WireBits   uint64
}

// Add accumulates one transfer.
func (r *Ratio) Add(sourceBits, wireBits int) {
	r.SourceBits += uint64(sourceBits)
	r.WireBits += uint64(wireBits)
}

// Merge folds another accumulator in.
func (r *Ratio) Merge(o Ratio) {
	r.SourceBits += o.SourceBits
	r.WireBits += o.WireBits
}

// Value returns uncompressed ÷ compressed (the paper's metric).
func (r Ratio) Value() float64 {
	if r.WireBits == 0 {
		return 1
	}
	return float64(r.SourceBits) / float64(r.WireBits)
}

// Mean is the arithmetic mean of xs (the paper reports arithmetic
// averages of per-benchmark ratios).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Table is a simple named-rows × named-columns float table that renders
// in the fixed-width style of the paper's figures.
type Table struct {
	Title   string
	Columns []string
	rows    []string
	data    map[string][]float64
}

// NewTable creates a table with the given columns.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns, data: map[string][]float64{}}
}

// Set stores a cell; rows appear in first-set order.
func (t *Table) Set(row, col string, v float64) {
	ci := -1
	for i, c := range t.Columns {
		if c == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		panic(fmt.Sprintf("stats: unknown column %q in table %q", col, t.Title))
	}
	if _, ok := t.data[row]; !ok {
		t.rows = append(t.rows, row)
		t.data[row] = make([]float64, len(t.Columns))
		for i := range t.data[row] {
			t.data[row][i] = math.NaN()
		}
	}
	t.data[row][ci] = v
}

// Get reads a cell (NaN when unset).
func (t *Table) Get(row, col string) float64 {
	for i, c := range t.Columns {
		if c == col {
			if vs, ok := t.data[row]; ok {
				return vs[i]
			}
		}
	}
	return math.NaN()
}

// Rows returns row names in insertion order.
func (t *Table) Rows() []string { return append([]string(nil), t.rows...) }

// AddMeanRow appends a "mean" row averaging every column over the
// current rows (ignoring NaNs).
func (t *Table) AddMeanRow(name string) {
	means := make([]float64, len(t.Columns))
	counts := make([]int, len(t.Columns))
	for _, r := range t.rows {
		for i, v := range t.data[r] {
			if !math.IsNaN(v) {
				means[i] += v
				counts[i]++
			}
		}
	}
	for i := range means {
		if counts[i] > 0 {
			means[i] /= float64(counts[i])
		} else {
			means[i] = math.NaN()
		}
	}
	t.rows = append(t.rows, name)
	t.data[name] = means
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n", t.Title)
	rowW := 12
	for _, r := range t.rows {
		if len(r) > rowW {
			rowW = len(r)
		}
	}
	fmt.Fprintf(&b, "%-*s", rowW+2, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", rowW+2, r)
		for _, v := range t.data[r] {
			if math.IsNaN(v) {
				fmt.Fprintf(&b, "%12s", "-")
			} else {
				fmt.Fprintf(&b, "%12.3f", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
