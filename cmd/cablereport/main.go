// Command cablereport regenerates every table and figure of the
// paper's evaluation and emits a Markdown report (the data behind
// EXPERIMENTS.md).
//
// Usage:
//
//	cablereport              # full scale (minutes)
//	cablereport -quick       # reduced scale
//	cablereport -o out.md    # write to a file
//	cablereport -parallel 8  # bound the worker pool (default GOMAXPROCS)
//	cablereport -breakdown   # only the encoding-class coverage table
//	cablereport -metrics m.json  # dump the metrics registry after the run
//	cablereport -windows w.json  # dump the flight recorder's windowed time series
//	cablereport -timeline t.json # dump the event timeline (tools/traceexport input)
//
// Experiments run concurrently but the report streams in paper order:
// each section is written as soon as it and everything before it have
// finished. Output is bit-identical at any -parallel setting: the
// report holds no wall clock (each driver's seconds go to stderr).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cable"
	"cable/internal/cli"
)

func main() {
	shared := cli.Register(flag.CommandLine, cli.Help{
		Exp:      "single experiment id to run",
		Quick:    "reduced-scale runs",
		Parallel: "worker pool size across and within experiments",
		Topology: "interconnect shape for the mesh experiment: ring|mesh|star (default mesh)",
		Chips:    "chip count for the mesh experiment (default 16; 8 in -quick)",
		Spec:     "workload-spec JSON file driving the workload and mesh experiments",
		Replay:   "comma-separated cabletrace captures to replay through the workload and mesh experiments",
	})
	out := flag.String("o", "", "output file (default stdout)")
	charts := flag.Bool("charts", false, "render ASCII bar charts under each table")
	breakdown := flag.Bool("breakdown", false, "run only the encoding-class coverage table")
	flag.Parse()

	opt, err := shared.Options()
	if err != nil {
		fail(err)
	}
	ids := cable.Experiments()
	if *breakdown {
		ids = []string{"breakdown"}
	}
	if shared.Exp != "" {
		ids = []string{shared.Exp}
	}
	if *out == "" {
		err = report(os.Stdout, shared, opt, ids, *charts)
	} else {
		var f *os.File
		if f, err = os.Create(*out); err != nil {
			fail(err)
		}
		err = report(f, shared, opt, ids, *charts)
		// The report is only on disk once Close succeeds.
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fail(err)
	}
}

// report streams the experiments' sections to w in ids order, then
// writes the shared post-run dumps.
func report(w io.Writer, shared *cli.Flags, opt cable.ExperimentOptions, ids []string, charts bool) error {
	mode := "full"
	if opt.Quick {
		mode = "quick"
	}
	fmt.Fprintf(w, "# CABLE reproduction report (%s scale)\n\n", mode)
	total := time.Now()
	for sr := range cable.StreamExperiments(ids, opt) {
		if sr.Err != nil {
			return fmt.Errorf("%s: %w", sr.ID, sr.Err)
		}
		res := sr.Result
		fmt.Fprintf(w, "%s\n", res.Table)
		if charts {
			fmt.Fprintf(w, "```\n%s```\n\n", res.Table.ChartAll())
		}
		for _, n := range res.Notes {
			fmt.Fprintf(w, "> %s\n", n)
		}
		fmt.Fprintf(w, "\n_(%s: %s)_\n\n", sr.ID, cable.DescribeExperiment(sr.ID))
		fmt.Fprintf(os.Stderr, "done %-8s %.1fs\n", sr.ID, sr.Elapsed.Seconds())
	}
	elapsed := time.Since(total)
	fmt.Fprintf(os.Stderr, "total %d experiments, %.1fs wall clock (parallel=%d)\n",
		len(ids), elapsed.Seconds(), shared.Parallel)
	return shared.Finish(elapsed, "")
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "cablereport: %v\n", err)
	os.Exit(1)
}
