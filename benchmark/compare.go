package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// childOptions are the flags the all-workloads modes pass down to the
// one child process per workload and run.
type childOptions struct {
	seed    int
	seconds float64
	trace   int
	smoke   bool
	runs    int
}

// record is one run of one workload as kept in a result file.
type record struct {
	Workload string     `json:"workload"`
	Seed     int        `json:"seed"`
	Trace    int        `json:"trace"`
	Result   resultLine `json:"result"`
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// runChild runs one workload in a child process of this binary, copies
// what it prints to w, and parses its result line. Each workload gets a
// process of its own so that peak_rss_mb and the allocator's state are
// the workload's and nobody else's.
func runChild(w io.Writer, name string, seed int, opt childOptions) (record, error) {
	self, err := os.Executable()
	if err != nil {
		return record{}, err
	}
	args := []string{
		"--workload", name,
		"--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(opt.trace),
	}
	if opt.smoke {
		args = append(args, "--smoke")
	}
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(w, &out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return record{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	rec := record{Workload: name, Seed: seed, Trace: opt.trace}
	if err := json.Unmarshal(lastLine(out.Bytes()), &rec.Result); err != nil {
		return record{}, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	return rec, nil
}

// runSet runs every workload opt.runs times, run i on seed opt.seed+i,
// one child at a time.
func runSet(w io.Writer, opt childOptions) ([]record, error) {
	var recs []record
	for i := 0; i < opt.runs; i++ {
		for _, def := range workloads {
			rec, err := runChild(w, def.name, opt.seed+i, opt)
			if err != nil {
				return recs, err
			}
			recs = append(recs, rec)
		}
	}
	return recs, nil
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// appendRecords adds recs to the JSON array in path, creating it if
// need be, so that alternating invocations of a parent and a change can
// each grow their own file.
func appendRecords(path string, recs []record) error {
	old, err := readRecords(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	data, err := json.MarshalIndent(append(old, recs...), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runAll is the harness without --workload: every workload, every run,
// then a summary, and the records appended to outPath if given.
func runAll(w io.Writer, opt childOptions, outPath string) error {
	recs, err := runSet(w, opt)
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := appendRecords(outPath, recs); err != nil {
			return err
		}
	}
	defs := endToEnd
	if opt.trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(w, "\n# summary over %d run(s) per workload\n", opt.runs)
	for _, def := range workloads {
		for _, d := range defs {
			xs := valuesOf(recs, def.name, opt.trace, d.Name)
			q1, q3 := quartiles(xs)
			fmt.Fprintf(w, "%-12s %-38s n=%-3d median %12.6g %-8s quartiles %.6g %.6g\n", def.name, d.Name, len(xs), median(xs), d.Unit, q1, q3)
		}
	}
	return failures(recs)
}

// failures reports the failed checks of recs as an error.
func failures(recs []record) error {
	var bad []string
	for _, r := range recs {
		if !r.Result.Correct || r.Result.Failed > 0 {
			bad = append(bad, fmt.Sprintf("%s seed %d: %d of %d checks failed", r.Workload, r.Seed, r.Result.Failed, r.Result.Attempted))
		}
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	return nil
}

// valuesOf returns one metric of one workload over the runs of recs, in
// run order.
func valuesOf(recs []record, workload string, trace int, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if v, ok := r.Result.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// worsening is by how much `to` is worse than `from`, as a share of
// `from`; negative when it is better.
func worsening(d metricDef, from, to float64) float64 {
	if d.Better == "higher" {
		return (from - to) / from
	}
	return (to - from) / from
}

// selfCheck runs two full sets of runs of the same tree and judges them
// as the driver judges a benchmark: every spread but setup_s's within
// the metric's bound, and no median of the second set worse than the
// first's by more than the bound.
func selfCheck(w io.Writer, opt childOptions) error {
	opt.trace = 0
	first, err := runSet(w, opt)
	if err != nil {
		return err
	}
	second, err := runSet(w, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n# selfcheck: two sets of %d run(s) per workload of the same tree\n", opt.runs)
	fmt.Fprintf(w, "%-12s %-22s %12s %12s %9s %9s %9s %7s\n", "workload", "metric", "median 1", "median 2", "2 vs 1", "spread 1", "spread 2", "bound")
	var bad []string
	for _, def := range workloads {
		for _, d := range endToEnd {
			a := valuesOf(first, def.name, 0, d.Name)
			b := valuesOf(second, def.name, 0, d.Name)
			worse := worsening(d, median(a), median(b))
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if worse > d.Bound {
				verdict = "MEDIANS DISAGREE"
			}
			if d.Name != "setup_s" && opt.runs > 1 && (sa > d.Bound || sb > d.Bound) {
				verdict = "SPREAD EXCEEDS BOUND"
			}
			if verdict != "ok" {
				bad = append(bad, def.name+"/"+d.Name)
			}
			fmt.Fprintf(w, "%-12s %-22s %12.6g %12.6g %+8.2f%% %8.2f%% %8.2f%% %6.1f%%  %s\n",
				def.name, d.Name, median(a), median(b), worse*100, sa*100, sb*100, d.Bound*100, verdict)
		}
	}
	if err := failures(append(first, second...)); err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) do not repeat within their bound: %s", len(bad), strings.Join(bad, ", "))
	}
	return nil
}

// verdictOf judges one metric of one workload, parent runs against
// change runs paired in run order, by the rules of the choosing-metrics
// guide.
func verdictOf(d metricDef, parent, change []float64) (verdict string, wins, pairs int) {
	pairs = min(len(parent), len(change))
	identical := pairs > 0
	for i := 0; i < pairs; i++ {
		if worsening(d, parent[i], change[i]) < 0 {
			wins++
		}
		identical = identical && parent[i] == change[i]
	}
	allBetter := pairs > 0
	for _, p := range parent {
		for _, c := range change {
			if worsening(d, p, c) >= 0 {
				allBetter = false
			}
		}
	}
	pq1, pq3 := quartiles(parent)
	worse := worsening(d, median(parent), median(change))
	switch {
	case pairs == 0:
		return "no runs", 0, 0
	case identical:
		// A count that repeats exactly for a seed: the spread over seeds
		// says nothing about the change.
		return "identical in every pair", wins, pairs
	case (spread(parent) > d.Bound || spread(change) > d.Bound) && !allBetter:
		return "unresolved: spread exceeds the bound", wins, pairs
	case worse > d.Bound:
		return "REGRESSED", wins, pairs
	case float64(wins) >= 0.9*float64(pairs) && pairs >= 10 && math.Abs(median(change)-median(parent)) > pq3-pq1:
		return "gain", wins, pairs
	}
	return "within bound", wins, pairs
}

// compareFiles prints, for every workload and end-to-end metric, the
// parent's and the change's medians and quartiles, the change over the
// parent with its base, the pairs the change won, and a verdict.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# parent %s, change %s; pairs are runs in file order\n", parentPath, changePath)
	regressed := 0
	for _, def := range workloads {
		for _, d := range endToEnd {
			p := valuesOf(parent, def.name, 0, d.Name)
			c := valuesOf(change, def.name, 0, d.Name)
			verdict, wins, pairs := verdictOf(d, p, c)
			if verdict == "REGRESSED" {
				regressed++
			}
			pq1, pq3 := quartiles(p)
			cq1, cq3 := quartiles(c)
			fmt.Fprintf(w, "%-12s %-22s parent %.6g [%.6g %.6g] n=%d  change %.6g [%.6g %.6g] n=%d %s  change/parent %.4f of base %.6g %s (%s is better, bound %g%%)  won %d of %d pairs  %s\n",
				def.name, d.Name, median(p), pq1, pq3, len(p), median(c), cq1, cq3, len(c), d.Unit,
				median(c)/median(p), median(p), d.Unit, d.Better, d.Bound*100, wins, pairs, verdict)
		}
	}
	if err := failures(change); err != nil {
		return fmt.Errorf("change: %w", err)
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}
