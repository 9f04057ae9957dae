// Command benchmark is the repository's benchmark: five workloads, ten
// end-to-end metrics and a per-layer ladder from bits to the full
// report. README.md in this directory says what each number means.
//
//	bash benchmark/run.sh --workload codec_trace --seed 1 --seconds 10 --trace 0
//
// is what the driver runs (BENCHMARK.json); the last line it prints is
// the result as one JSON object. Without --workload the harness runs
// every workload, each in a child process of its own, one after the
// other.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload in this process and print its result line (default: all, each in a child process)")
		seed      = flag.Int("seed", 1, "seed of every generated input; 2 is the held-out seed")
		seconds   = flag.Float64("seconds", runSeconds, "how long to keep repeating the workload's fixed unit of work")
		trace     = flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics instead")
		smoke     = flag.Bool("smoke", false, "tiny sizes: proves every path runs, measures nothing")
		runs      = flag.Int("runs", 1, "with all workloads: runs of each, on seeds seed, seed+1, ...")
		out       = flag.String("o", "", "with all workloads: append every run's result to this JSON file")
		selfcheck = flag.Bool("selfcheck", false, "run two full sets of -runs runs and fail if they disagree beyond the bounds")
		compare   = flag.Bool("compare", false, "compare two result files: -compare parent.json change.json")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files, got %d arguments", flag.NArg())
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace == 1, *smoke)
	default:
		opt := childOptions{seed: *seed, seconds: *seconds, trace: *trace, smoke: *smoke, runs: *runs}
		if *selfcheck {
			err = selfCheck(os.Stdout, opt)
		} else {
			err = runAll(os.Stdout, opt, *out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// repoRoot finds the root of the checkout: the nearest directory at or
// above the working directory that holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

// runOne runs one workload in this process and prints its metrics,
// then the result line the driver reads.
func runOne(name string, seed int, seconds float64, trace, smoke bool) error {
	def, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace {
		// The traced run repeats the workload as the untraced run does,
		// on one P; only the rungs that measure parallel speed-up widen
		// it again.
		runtime.GOMAXPROCS(1)
	} else if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: running unpinned, expect wider spreads:", err)
		runtime.GOMAXPROCS(1)
	}
	e := env{seed: seed, nproc: runtime.GOMAXPROCS(0), sz: fullSizes}
	if smoke {
		e.sz = smokeSizes
	}
	budget := time.Duration(seconds * float64(time.Second))
	var (
		res *runResult
		err error
	)
	if trace {
		root, rerr := repoRoot()
		if rerr != nil {
			return rerr
		}
		res, err = runTraced(def, e, budget, root)
	} else {
		res, err = runUntraced(def, e, budget, smoke)
	}
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	return res.printLine(os.Stdout)
}
