package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// What BENCHMARK.json tells the driver besides the harness's tables.
var (
	benchmarkCommand = []string{"bash", "benchmark/run.sh"}
	benchmarkPaths   = []string{"benchmark"}
)

// Limits of the driver's contract on BENCHMARK.json.
const (
	maxEndToEnd  = 16
	maxPerLayer  = 128
	minWorkloads = 2
	maxWorkloads = 8
	maxBound     = 0.25
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, since that is what the driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 2, 1, 3}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 40}, 10, 40},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestPercentiles(t *testing.T) {
	asc := make([]float64, 1000)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// The highest percentile reported must leave ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
		{20000, 0.999, true},
		{100000, 0.9999, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v, want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

const cannedTop = `File: cable-benchmark
Type: cpu
Time: 2026-01-01 00:00:00 UTC
Duration: 10.1s, Total samples = 2s (19.80%)
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.40s 20.00% 20.00%      0.90s 45.00%  cable/internal/compress.(*LBE).CompressScratch
     0.20s 10.00% 30.00%      0.20s 10.00%  cable/internal/bits.(*Writer).WriteBits (inline)
     0.20s 10.00% 40.00%      0.20s 10.00%  cable/internal/workload/spec.(*Mix).Next
     0.20s 10.00% 50.00%      0.60s 30.00%  cable/internal/core.(*HomeEnd).encodeBatch
     0.10s  5.00% 55.00%      0.10s  5.00%  cable/internal/stats.(*Table).Set
     0.10s  5.00% 60.00%      0.10s  5.00%  runtime.mallocgcSmallNoscan
     0.10s  5.00% 65.00%      0.10s  5.00%  runtime.scanobject
     0.10s  5.00% 70.00%      0.10s  5.00%  runtime.futex
     0.10s  5.00% 75.00%      0.10s  5.00%  runtime.memmove
     0.10s  5.00% 80.00%      0.10s  5.00%  internal/runtime/syscall.Syscall6
     0.20s 10.00% 90.00%      0.20s 10.00%  math/rand.seedrand (inline)
     100ms  5.00% 95.00%      100ms  5.00%  cable/internal/sig.(*H3).Hash (inline)
     0.10s  5.00%   100%      0.10s  5.00%  main.(*codecRunner).rep
         0     0%   100%      1.50s 75.00%  cable/internal/codec.(*Encoder).Write
`

func TestGroupTop(t *testing.T) {
	shares, other, err := groupTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"compress": 0.20, "bits": 0.10, "workload": 0.10, "core": 0.10, "sig": 0.05,
		"runtime_alloc": 0.05, "runtime_gc": 0.05, "runtime_sched": 0.05, "syscall": 0.05,
		"math_rand": 0.10, "other": 0.15, // stats, memmove and the harness itself
	}
	var sum float64
	for _, g := range profGroups {
		sum += shares[g]
		if !near(shares[g], want[g]) {
			t.Errorf("share of %s = %v, want %v", g, shares[g], want[g])
		}
	}
	if !near(sum, 1) {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(shares) != len(profGroups) {
		t.Errorf("%d groups, want %d", len(shares), len(profGroups))
	}
	if len(other) != 3 || !strings.HasPrefix(other[0], "cable/internal/stats.(*Table).Set") {
		t.Errorf("largest unattributed symbols = %q", other)
	}
	if _, _, err := groupTop("no table here\n"); err == nil {
		t.Error("groupTop accepted output without a table")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"cable/internal/compress.(*LBE).Compress": "cable/internal/compress",
		"cable/internal/workload/spec.Parse":      "cable/internal/workload/spec",
		"runtime.memmove":                         "runtime",
		"internal/runtime/syscall.Syscall6":       "internal/runtime/syscall",
		"main.main.func1":                         "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricTable holds the harness's metric and workload tables to the
// limits of the driver's contract.
func TestMetricTable(t *testing.T) {
	if n := len(endToEnd); n < 1 || n > maxEndToEnd {
		t.Errorf("%d end-to-end metrics, want 1..%d", n, maxEndToEnd)
	}
	if n := len(perLayer); n < 1 || n > maxPerLayer {
		t.Errorf("%d per-layer metrics, want 1..%d", n, maxPerLayer)
	}
	if n := len(workloads); n < minWorkloads || n > maxWorkloads {
		t.Errorf("%d workloads, want %d..%d", n, minWorkloads, maxWorkloads)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Clock != "host" && d.Clock != "sim" && d.Clock != "count" {
			t.Errorf("%s: clock = %q", d.Name, d.Clock)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > maxBound {
			t.Errorf("%s: bound %v outside (0, %v]", d.Name, d.Bound, maxBound)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower is better", d)
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, n := range []string{"a", "A1_b.c-d", strings.Repeat("x", 64)} {
		if !nameRE.MatchString(n) {
			t.Errorf("nameRE rejects %q", n)
		}
	}
	for _, n := range []string{"", "_a", "a b", "a/b", strings.Repeat("x", 65)} {
		if nameRE.MatchString(n) {
			t.Errorf("nameRE accepts %q", n)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// wantBenchmarkJSON is BENCHMARK.json as the harness's tables imply it.
func wantBenchmarkJSON() benchmarkJSON {
	b := benchmarkJSON{Command: benchmarkCommand, Paths: benchmarkPaths, RunSeconds: runSeconds}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{d.Name, d.Unit, d.Better})
	}
	return b
}

// TestBenchmarkJSONAgrees checks BENCHMARK.json against the harness.
// UPDATE_BENCHMARK_JSON=1 rewrites the file from the harness's tables.
func TestBenchmarkJSONAgrees(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := wantBenchmarkJSON()
	if os.Getenv("UPDATE_BENCHMARK_JSON") == "1" {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the contract allows 64 KiB", len(data))
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json disagrees with the harness; run UPDATE_BENCHMARK_JSON=1 go test -run TestBenchmarkJSONAgrees\n got %+v\nwant %+v", got, want)
	}
}

func smokeEnv() env { return env{seed: 1, nproc: runtime.GOMAXPROCS(0), sz: smokeSizes} }

// TestSmoke runs every workload at smoke size: every check must pass
// and every end-to-end metric must be a positive number.
func TestSmoke(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			res, err := runUntraced(def, smokeEnv(), 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%d of %d checks failed: %v", res.failed, res.attempted, res.errs)
			}
			line := res.line()
			if !line.Correct || len(line.Metrics) != len(endToEnd) {
				t.Errorf("result line: correct=%v with %d metrics, want %d", line.Correct, len(line.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				v := line.Metrics[d.Name]
				if !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("%s = %v %s, want a positive number of %s", d.Name, v.Value, v.Unit, d.Unit)
				}
			}
			var buf bytes.Buffer
			if err := res.printLine(&buf); err != nil || !json.Valid(buf.Bytes()) {
				t.Errorf("result line is not JSON: %v %q", err, buf.String())
			}
		})
	}
}

// TestSmokeTraced runs one traced run at smoke size: it must measure
// every per-layer metric, pass every check and leave a span file.
func TestSmokeTraced(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	def, _ := workloadByName("codec_mix")
	res, err := runTraced(def, smokeEnv(), 0, root)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Errorf("%d of %d checks failed: %v", res.failed, res.attempted, res.errs)
	}
	line := res.line()
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("%d metrics on the result line, want %d", len(line.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if v := line.Metrics[d.Name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", d.Name, v)
		}
	}
	data, err := os.ReadFile(filepath.Join(root, "benchmark", "out", "codec_mix.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Errorf("span file: %v, %d events", err, len(trace.TraceEvents))
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	sibling := tr.begin("sibling")
	tr.end(sibling)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[sibling].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	if in, out := tr.spans[inner], tr.spans[outer]; in.Start < out.Start || in.End > out.End {
		t.Errorf("inner %+v is not inside outer %+v", in, out)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("nothing")) // the untraced run: no-ops
}

func TestVerdicts(t *testing.T) {
	higher := metricDef{Name: "source_mb_per_s", Better: "higher", Bound: 0.10}
	ten := func(base, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"same", ten(100, 0.1), ten(100.01, 0.1), "within bound"},
		{"identical counts over spread-out seeds", ten(100, 5), ten(100, 5), "identical in every pair"},
		{"slower", ten(100, 0.1), ten(80, 0.1), "REGRESSED"},
		{"faster", ten(100, 0.1), ten(120, 0.1), "gain"},
		{"noisy", ten(100, 5), ten(101, 5), "unresolved: spread exceeds the bound"},
		{"noisy but every run better", ten(100, 5), ten(200, 5), "gain"},
		{"few runs", ten(100, 0.1)[:3], ten(120, 0.1)[:3], "within bound"},
		{"none", nil, nil, "no runs"},
	} {
		if got, _, _ := verdictOf(higher, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	lower := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	if w := worsening(lower, 1, 1.5); !near(w, 0.5) {
		t.Errorf("worsening(lower, 1, 1.5) = %v, want 0.5", w)
	}
	if w := worsening(higher, 100, 90); !near(w, 0.1) {
		t.Errorf("worsening(higher, 100, 90) = %v, want 0.1", w)
	}
}
