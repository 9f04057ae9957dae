package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	setupRuns = 3 // set-ups per run; setup_s is their median
	minReps   = 2 // a digest needs a second repetition to be compared with
)

// sample is one printed metric with the repetitions behind it.
type sample struct {
	value  float64
	how    string // what value is of the n repetitions: "median" or "best"
	n      int    // repetitions (or set-ups) behind the value; 1 for a whole-region total
	median float64
	q1, q3 float64
}

// runResult is the outcome of one run of one workload.
type runResult struct {
	workload  string
	seed      int
	defs      []metricDef // endToEnd or perLayer
	values    map[string]sample
	attempted int
	failed    int
	errs      []string
	notes     []string
}

// value is how a metric appears in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object the driver reads from the last line.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *runResult) line() resultLine {
	l := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range r.defs {
		l.Metrics[d.Name] = value{r.values[d.Name].value, d.Unit}
	}
	return l
}

func (r *runResult) printLine(w io.Writer) error {
	data, err := json.Marshal(r.line())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// print writes every metric by name with its unit, direction, bound,
// clock and the repetitions behind it.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "# workload %s seed %d\n", r.workload, r.seed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, d := range r.defs {
		s := r.values[d.Name]
		fmt.Fprintf(w, "%-38s %14.6g %-8s %s is better", d.Name, s.value, d.Unit, d.Better)
		if d.Bound > 0 {
			fmt.Fprintf(w, ", may worsen %g%%", d.Bound*100)
		}
		fmt.Fprintf(w, ", %s", clockLabel(d.Clock))
		switch {
		case s.n > 1 && s.how == "best":
			fmt.Fprintf(w, ", best of n=%d (median %.6g, quartiles %.6g %.6g)", s.n, s.median, s.q1, s.q3)
		case s.n > 1:
			fmt.Fprintf(w, ", median of n=%d (quartiles %.6g %.6g)", s.n, s.q1, s.q3)
		}
		fmt.Fprintf(w, "  # %s\n", d.Doc)
	}
	fmt.Fprintf(w, "checks: %d attempted, %d failed (failed share %.6g)\n", r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, e := range r.errs {
		fmt.Fprintf(w, "FAILED: %s\n", e)
	}
}

func clockLabel(clock string) string {
	switch clock {
	case "host":
		return "host time"
	case "sim":
		return "simulated time"
	}
	return "a count"
}

// medianOf summarises per-repetition values as their median.
func medianOf(xs []float64) sample {
	q1, q3 := quartiles(xs)
	m := median(xs)
	return sample{value: m, how: "median", n: len(xs), median: m, q1: q1, q3: q3}
}

// bestOf summarises per-repetition values as the best of them, the
// highest or the lowest. Whatever else the host runs only ever slows a repetition
// down, for milliseconds or for minutes, so the best repetition of a run
// repeats from run to run within 2 to 6% where the median repetition
// moves by 6 to 14% (README, "Observed spreads"). A change that slows
// the code slows every repetition, the best one too.
func bestOf(xs []float64, higher bool) sample {
	s := medianOf(xs)
	s.how = "best"
	asc := sorted(xs)
	s.value = asc[0]
	if higher {
		s.value = asc[len(asc)-1]
	}
	return s
}

func total(v float64) sample { return sample{value: v, n: 1, median: v, q1: v, q3: v} }

// safeRep runs one repetition and turns a panic into a failed check.
func safeRep(r runner, tr *tracer) (o repOut) {
	defer func() {
		if p := recover(); p != nil {
			o = repOut{checks: 1, failed: 1, errs: []string{fmt.Sprintf("panic: %v\n%s", p, debug.Stack())}}
		}
	}()
	return r.rep(tr)
}

// repeat runs repetitions of r until budget has passed, and at least
// atLeast of them. The work of one repetition is fixed; only their
// number depends on the clock, and every reported rate is a median over
// repetitions, so two commits are compared on identical work.
func repeat(r runner, budget time.Duration, atLeast int, tr *tracer) []repOut {
	var reps []repOut
	for start := time.Now(); len(reps) < atLeast || time.Since(start) < budget; {
		tr.setRep(len(reps))
		// Every repetition starts from a collected heap, as testing.B
		// starts every benchmark, so that one repetition's garbage is not
		// collected on the next one's clock.
		runtime.GC()
		reps = append(reps, safeRep(r, tr))
	}
	return reps
}

// setUp sets the workload up `times` times, closing all but the last
// runner, and returns the last one and each set-up's duration in
// seconds.
func setUp(def workloadDef, e env, times int) (runner, []float64, error) {
	var (
		r    runner
		secs []float64
	)
	for i := 0; i < times; i++ {
		if r != nil {
			// Drop the previous set-up before the next one starts, so that
			// peak_rss_mb is one set-up's memory, not two.
			r.close()
			r = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if r, err = def.setup(e); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return r, secs, nil
}

// tally adds the checks of reps to res, plus one check per repetition
// after the first that its digest equals the first's.
func (r *runResult) tally(reps []repOut) {
	for i, o := range reps {
		r.attempted += o.checks
		r.failed += o.failed
		for _, e := range o.errs {
			r.errs = append(r.errs, fmt.Sprintf("repetition %d: %s", i, e))
		}
		if i > 0 && o.failed == 0 && reps[0].failed == 0 {
			r.attempted++
			if o.digest != reps[0].digest {
				r.failed++
				r.errs = append(r.errs, fmt.Sprintf("repetition %d: outputs differ from repetition 0 (digest %x, want %x)", i, o.digest[:8], reps[0].digest[:8]))
			}
		}
	}
}

// walls returns each repetition's clocked time in seconds.
func walls(reps []repOut) []float64 {
	xs := make([]float64, len(reps))
	for i, o := range reps {
		xs[i] = o.use.wall.Seconds()
	}
	return xs
}

// runUntraced measures the end-to-end metrics of one workload, with
// tracing and profiling off.
func runUntraced(def workloadDef, e env, budget time.Duration, smoke bool) (*runResult, error) {
	times := setupRuns
	if smoke {
		times = 1
	}
	r, setups, err := setUp(def, e, times)
	if err != nil {
		return nil, err
	}
	defer r.close()
	reps := repeat(r, budget, minReps, nil)

	res := &runResult{workload: def.name, seed: e.seed, defs: endToEnd, values: map[string]sample{}}
	res.tally(reps)
	if def.name == "pipe_tcp" {
		res.notes = append(res.notes, "traffic crossed the host's loopback interface, not a link: no wire latency, no loss")
	}
	res.notes = append(res.notes, fmt.Sprintf("%d repetitions of fixed work in %.1f s of clocked time, GOMAXPROCS %d", len(reps), sum(walls(reps)), e.nproc))

	per := map[string][]float64{} // per-repetition values of the host-time metrics
	var use usage
	var bytes float64
	var first *repOut // the first repetition that passed its checks
	for i, o := range reps {
		if o.failed > 0 {
			continue
		}
		if first == nil {
			first = &reps[i]
		}
		per["source_mb_per_s"] = append(per["source_mb_per_s"], o.sourceMBps)
		per["decode_mb_per_s"] = append(per["decode_mb_per_s"], o.decodeMBps)
		per["frame_rtt_p50_us"] = append(per["frame_rtt_p50_us"], o.rttP50us)
		per["cpu_s_per_gb"] = append(per["cpu_s_per_gb"], o.use.cpu.Seconds()/(o.srcBytes/1e9))
		use.add(o.use)
		bytes += o.srcBytes
	}
	if first == nil {
		return res, nil // nothing succeeded: the result line says so
	}
	lines := bytes / lineSize
	res.values["setup_s"] = medianOf(setups)
	for name, xs := range per {
		res.values[name] = bestOf(xs, defOf(endToEnd, name).Better == "higher")
	}
	res.values["compression_ratio"] = total(first.ratio)
	res.values["sim_speedup"] = total(first.speedup)
	res.values["allocs_per_kline"] = total(float64(use.mallocs) / (lines / 1000))
	res.values["alloc_bytes_per_line"] = total(float64(use.bytes) / lines)
	res.values["peak_rss_mb"] = total(peakRSSMB())
	return res, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// runTraced measures the per-layer metrics of one workload: the CPU
// profile of the same timed region as the untraced run, grouped by
// layer, and every rung of the ladder replayed on the workload's own
// stream. Spans and the profile are written under benchmark/out in the
// checkout at root.
func runTraced(def workloadDef, e env, budget time.Duration, root string) (*runResult, error) {
	outDir := filepath.Join(root, "benchmark", "out")
	r, _, err := setUp(def, e, 1)
	if err != nil {
		return nil, err
	}
	defer r.close()
	res := &runResult{workload: def.name, seed: e.seed, defs: perLayer, values: map[string]sample{}}

	// The same repetitions, first untraced, then with spans and the CPU
	// profile on; the difference is what tracing costs.
	plain := repeat(r, budget/2, 1, nil)
	tr := newTracer()
	profPath := filepath.Join(outDir, def.name+".cpu.pprof")
	stop, err := startProfile(profPath)
	if err != nil {
		return nil, err
	}
	top := tr.begin(def.name)
	traced := repeat(r, budget, 1, tr)
	tr.end(top)
	if err := stop(); err != nil {
		return nil, err
	}
	res.tally(append(append([]repOut(nil), plain...), traced...))
	res.values["harness.trace_overhead_share"] = total(median(walls(traced))/median(walls(plain)) - 1)

	shares, other, err := profileShares(profPath)
	if err != nil {
		return nil, err
	}
	for g, s := range shares {
		res.values["prof."+g+"_cpu_share"] = total(s)
	}
	res.notes = append(res.notes, fmt.Sprintf("largest symbols in prof.other_cpu_share: %s", strings.Join(other, ", ")))

	stream, err := def.stream(e.seed, e.sz.ladderLines)
	if err != nil {
		return nil, fmt.Errorf("%s: ladder stream: %w", def.name, err)
	}
	p := &probe{e: e, def: def, tr: tr, res: res, stream: stream, root: root}
	tr.setRep(-1)
	p.all()

	tracePath := filepath.Join(outDir, def.name+".trace.json")
	if err := tr.writeChrome(tracePath); err != nil {
		return nil, err
	}
	res.notes = append(res.notes,
		fmt.Sprintf("%d untraced and %d traced repetitions; end-to-end numbers come from the untraced run only", len(plain), len(traced)),
		"spans: "+tracePath, "CPU profile: "+profPath)

	var missing []string
	for _, d := range perLayer {
		if _, ok := res.values[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("%s: traced run did not measure %v", def.name, missing)
	}
	return res, nil
}
