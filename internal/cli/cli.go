// Package cli is the command-line setup cablesim and cablereport share:
// the flags both accept, the cable.ExperimentOptions they describe, and
// the dumps written after a run. Each binary registers these flags next
// to its own, calls Options before running and Finish after.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"cable"
)

// Help carries the usage strings that read differently in the two
// binaries (one experiment versus the whole report); every other shared
// flag has one wording.
type Help struct {
	Exp, Quick, Parallel, Topology, Chips, Spec, Replay string
}

// Flags holds the parsed shared flags and, after Options, the run state
// Finish reports on.
type Flags struct {
	Exp      string
	Parallel int

	quick, nomemo                   bool
	metrics, windows, timeline      string
	flightWindow, chips             int
	faultRate, faultTrunc           float64
	faultSeed                       uint64
	topology, specFile, replayFiles string

	flight   *cable.Flight
	srcBytes uint64
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet, h Help) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Exp, "exp", "", h.Exp)
	fs.BoolVar(&f.quick, "quick", false, h.Quick)
	fs.IntVar(&f.Parallel, "parallel", runtime.GOMAXPROCS(0), h.Parallel)
	fs.StringVar(&f.metrics, "metrics", "", "write a deterministic metrics-registry JSON dump to this file after the run")
	fs.StringVar(&f.windows, "windows", "", "write a deterministic flight-recorder windowed time-series JSON dump to this file after the run")
	fs.StringVar(&f.timeline, "timeline", "", "write a deterministic flight-recorder event-timeline JSON dump to this file after the run")
	fs.IntVar(&f.flightWindow, "flight-window", 0, "flight-recorder window length in virtual-time ticks (0 = default 2048)")
	fs.BoolVar(&f.nomemo, "nomemo", false, "disable the cross-experiment cell cache (outputs are bit-identical either way)")
	fs.Float64Var(&f.faultRate, "fault-rate", 0, "per-bit flip probability injected into CABLE wire images (0 disables; outputs at 0 are byte-identical to a fault-free build)")
	fs.Float64Var(&f.faultTrunc, "fault-trunc-rate", 0, "per-image truncation probability injected into CABLE wire images")
	fs.Uint64Var(&f.faultSeed, "fault-seed", 1, "seed for the deterministic fault pattern (same seed+rates ⇒ identical results at any -parallel)")
	fs.StringVar(&f.topology, "topology", "", h.Topology)
	fs.IntVar(&f.chips, "chips", 0, h.Chips)
	fs.StringVar(&f.specFile, "workload-spec", "", h.Spec)
	fs.StringVar(&f.replayFiles, "replay", "", h.Replay)
	return f
}

// Options builds the flight recorder, loads the -workload-spec and
// -replay files and returns the experiment options the flags describe.
// An error names the flag whose file failed to load.
func (f *Flags) Options() (cable.ExperimentOptions, error) {
	if f.windows != "" || f.timeline != "" {
		f.flight = cable.NewFlight(cable.FlightConfig{Window: f.flightWindow})
	}
	opt := cable.ExperimentOptions{
		Quick: f.quick, Parallelism: f.Parallel, DisableCellMemo: f.nomemo,
		Fault:    cable.FaultConfig{BitRate: f.faultRate, TruncRate: f.faultTrunc, Seed: f.faultSeed},
		Topology: f.topology, Chips: f.chips,
		Flight: f.flight,
	}
	if f.specFile != "" {
		w, err := cable.LoadWorkloadSpec(f.specFile)
		if err != nil {
			return opt, fmt.Errorf("-workload-spec: %w", err)
		}
		opt.Workload = w
	}
	if f.replayFiles != "" {
		for _, path := range strings.Split(f.replayFiles, ",") {
			t, err := cable.LoadTrace(path)
			if err != nil {
				return opt, fmt.Errorf("-replay: %w", err)
			}
			opt.Replay = append(opt.Replay, t)
		}
	}
	f.srcBytes = encodedBytes()
	return opt, nil
}

// encodedBytes is the source data pushed through CABLE home-end
// encoders so far in this process. The cell runner merges a cell's
// metrics into the default registry on every request, memo hits
// included, and counts the source bytes a hit did not re-encode in
// experiments.cellmemo_saved_bytes — exactly the over-count.
func encodedBytes() uint64 {
	return cable.MetricValue("core.source_bits")/8 - cable.MetricValue("experiments.cellmemo_saved_bytes")
}

// memoAccount renders the cell memo's own account of this process:
// requests served from the memo, computed, and run around it. The
// counters are volatile — kept out of -metrics so memo on and off dump
// the same bytes — so the stderr line is where they are read.
func memoAccount() string {
	return fmt.Sprintf("memo: %d hits / %d misses / %d bypasses",
		cable.MetricValue("experiments.cellmemo_hits"), cable.MetricValue("experiments.cellmemo_misses"), cable.MetricValue("experiments.cellmemo_bypass"))
}

// Finish reports on the run that started when Options returned and took
// elapsed: the encoder-throughput line on stderr (clock is spliced in
// after "source lines" — cablesim states the wall clock there,
// cablereport has already printed it) with the memo's account, then the
// -metrics, -windows and -timeline dumps.
func (f *Flags) Finish(elapsed time.Duration, clock string) error {
	// Encoder throughput, honestly scoped: the numerator is source data
	// actually pushed through CABLE home-end encoders this run
	// (memo-served cells encode nothing), the denominator whole-run
	// wall-clock including simulation outside the encoder.
	if gb := float64(encodedBytes()-f.srcBytes) / 1e9; gb > 0 && elapsed > 0 {
		fmt.Fprintf(os.Stderr, "encoded %.3f GB of source lines%s — %.3f GB/s through the encoders (whole-run clock; memoized cells encode nothing; %s)\n",
			gb, clock, gb/elapsed.Seconds(), memoAccount())
	}
	if f.metrics != "" {
		if err := cable.WriteMetricsFile(f.metrics, false); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if f.windows != "" {
		if err := f.flight.WriteWindowsFile(f.windows); err != nil {
			return fmt.Errorf("windows: %w", err)
		}
	}
	if f.timeline != "" {
		if err := f.flight.WriteTimelineFile(f.timeline); err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
	}
	return nil
}
