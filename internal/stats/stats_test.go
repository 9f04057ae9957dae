package stats

import (
	"math"
	"strings"
	"testing"
)

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 1 {
		t.Fatal("empty ratio should be 1")
	}
	r.Add(512, 64)
	r.Add(512, 64)
	if r.Value() != 8 {
		t.Fatalf("ratio = %v, want 8", r.Value())
	}
	var o Ratio
	o.Add(512, 512)
	r.Merge(o)
	if math.Abs(r.Value()-1536.0/640) > 1e-12 {
		t.Fatalf("merged ratio = %v", r.Value())
	}
}

func TestMeans(t *testing.T) {
	xs := []float64{2, 8}
	if Mean(xs) != 5 {
		t.Fatalf("mean = %v", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Fig X", "a", "b")
	tb.Set("r1", "a", 1)
	tb.Set("r1", "b", 2)
	tb.Set("r2", "a", 3)
	if got := tb.Get("r1", "b"); got != 2 {
		t.Fatalf("Get = %v", got)
	}
	if !math.IsNaN(tb.Get("r2", "b")) {
		t.Fatal("unset cell should be NaN")
	}
	if !math.IsNaN(tb.Get("zzz", "a")) {
		t.Fatal("unknown row should be NaN")
	}
	tb.AddMeanRow("mean")
	if got := tb.Get("mean", "a"); got != 2 {
		t.Fatalf("mean a = %v, want 2", got)
	}
	if got := tb.Get("mean", "b"); got != 2 {
		t.Fatalf("mean b = %v, want 2 (NaN ignored)", got)
	}
	s := tb.String()
	for _, want := range []string{"Fig X", "r1", "r2", "mean", "2.000"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestTableUnknownColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable("t", "a").Set("r", "zzz", 1)
}

func TestChartAll(t *testing.T) {
	tb := NewTable("Grouped", "a", "b")
	tb.Set("row1", "a", 1)
	tb.Set("row1", "b", 3)
	s := tb.ChartAll()
	for _, want := range []string{"Grouped", "row1", "a", "b"} {
		if !strings.Contains(s, want) {
			t.Fatalf("grouped chart missing %q:\n%s", want, s)
		}
	}
	if got := NewTable("E", "v").ChartAll(); !strings.Contains(got, "no data") {
		t.Fatalf("empty grouped chart: %q", got)
	}
}
