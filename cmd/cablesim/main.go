// Command cablesim runs one experiment from the paper's evaluation and
// prints its table.
//
// Usage:
//
//	cablesim -exp fig12            # full-scale run
//	cablesim -exp fig14a -quick    # reduced scale (seconds)
//	cablesim -exp fig21 -parallel 8  # bound the per-cell worker pool
//	cablesim -exp fig12 -metrics m.json  # dump the metrics registry after the run
//	cablesim -exp fig12 -windows w.json  # dump the flight recorder's windowed time series
//	cablesim -exp fig12 -timeline t.json # dump the event timeline (tools/traceexport input)
//	cablesim -exp mesh -topology ring -chips 8  # N-chip topology scale-out
//	cablesim -exp workload -workload-spec mix.json  # declarative multi-client mix
//	cablesim -exp workload -replay a.trace,b.trace  # replay recorded captures
//	cablesim -list                 # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cable"
	"cable/internal/cli"
)

func main() {
	shared := cli.Register(flag.CommandLine, cli.Help{
		Exp:      "experiment id (see -list)",
		Quick:    "reduced-scale run",
		Parallel: "worker pool size for the driver's independent cells",
		Topology: "interconnect shape for -exp mesh: ring|mesh|star (default mesh)",
		Chips:    "chip count for -exp mesh (default 16; 8 in -quick)",
		Spec:     "workload-spec JSON file driving -exp workload (memory link) or -exp mesh (one mix per chip)",
		Replay:   "comma-separated cabletrace captures to replay: program slots for -exp workload, one per chip for -exp mesh, per-client (with -workload-spec) for spec replay",
	})
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()

	if *list {
		for _, id := range cable.Experiments() {
			fmt.Printf("%-10s %s\n", id, cable.DescribeExperiment(id))
		}
		return
	}
	if shared.Exp == "" {
		fmt.Fprintln(os.Stderr, "cablesim: -exp required (or -list); e.g. cablesim -exp fig12 -quick")
		os.Exit(2)
	}
	opt, err := shared.Options()
	if err != nil {
		fail(err)
	}
	start := time.Now()
	res, err := cable.RunExperiment(shared.Exp, opt)
	elapsed := time.Since(start)
	if err != nil {
		fail(err)
	}
	fmt.Println(res.Table)
	for _, n := range res.Notes {
		fmt.Printf("note: %s\n", n)
	}
	if err := shared.Finish(elapsed, fmt.Sprintf(" in %.2fs wall clock", elapsed.Seconds())); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "cablesim: %v\n", err)
	os.Exit(1)
}
