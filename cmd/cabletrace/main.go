// Command cabletrace records and inspects synthetic workload traces.
//
// Usage:
//
//	cabletrace -bench mcf -n 100000 -o mcf.trace   # record
//	cabletrace -bench mcf -instance 3 -o mcf3.trace # record chip-3's stream
//	cabletrace -spec mix.json -n 48000 -o mix       # record a spec's per-client streams
//	cabletrace -stats mcf.trace                     # inspect a trace
//	cabletrace -profile mcf -n 20000                # content profile
//
// The content profile reports the axes that drive link compression:
// zero-line fraction, trivial-word density, cross-line signature
// sharing, and per-engine standalone compressibility — useful when
// calibrating a workload model against a real system's traffic.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cable/internal/compress"
	"cable/internal/sig"
	"cable/internal/trace"
	"cable/internal/workload"
	"cable/internal/workload/spec"
)

func main() {
	bench := flag.String("bench", "", "benchmark to record (see -list)")
	n := flag.Int("n", 100000, "number of accesses")
	out := flag.String("o", "", "output trace file (-spec: output prefix, one PREFIX.CLIENT.trace per client)")
	instance := flag.Int("instance", 0, "generator instance to record with -bench (chip/program slot decorrelation)")
	specFile := flag.String("spec", "", "workload-spec JSON file: record the mix's per-client streams")
	statsFile := flag.String("stats", "", "trace file to summarize")
	profile := flag.String("profile", "", "benchmark to content-profile")
	list := flag.Bool("list", false, "list benchmarks")
	flag.Parse()

	switch {
	case *list:
		for _, name := range workload.Names() {
			s, _ := workload.ByName(name)
			zd := ""
			if s.ZeroDominant {
				zd = " (zero-dominant)"
			}
			fmt.Printf("%-12s %s%s\n", name, s.Class, zd)
		}
	case *statsFile != "":
		if err := summarize(*statsFile); err != nil {
			fatal(err)
		}
	case *profile != "":
		if err := profileBench(*profile, *n); err != nil {
			fatal(err)
		}
	case *specFile != "" && *out != "":
		if err := recordSpec(*specFile, *n, *out); err != nil {
			fatal(err)
		}
	case *bench != "" && *out != "":
		if err := record(*bench, *instance, *n, *out); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "cabletrace: need -list, -stats FILE, -profile BENCH, -bench BENCH -o FILE, or -spec FILE -o PREFIX")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cabletrace: %v\n", err)
	os.Exit(1)
}

func record(bench string, instance, n int, out string) error {
	gen, err := workload.New(bench, instance, 0)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Record(f, gen, n); err != nil {
		return err
	}
	fmt.Printf("recorded %d accesses of %s (instance %d) to %s\n", n, bench, instance, out)
	return nil
}

// recordSpec runs a workload spec's live mix for n total accesses and
// writes one capture per client (PREFIX.CLIENT.trace). Replaying the
// set through the same spec (-workload-spec + -replay) reconstructs
// the identical merged stream.
func recordSpec(path string, n int, prefix string) error {
	w, err := spec.Load(path)
	if err != nil {
		return err
	}
	var files []string
	err = spec.RecordClients(w, n, func(id string) (io.WriteCloser, error) {
		name := fmt.Sprintf("%s.%s.trace", prefix, id)
		files = append(files, name)
		return os.Create(name)
	})
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d accesses of spec %q across %d per-client captures: %s\n",
		n, w.Name, len(files), strings.Join(files, " "))
	return nil
}

// summarize prints a capture's access statistics. A capture that ends
// before its declared record count is an error (trace.Load), not a
// shorter summary.
func summarize(path string) error {
	t, err := trace.Load(path)
	if err != nil {
		return err
	}
	h := t.Header
	records := uint64(len(t.Accesses))
	var writes, gaps uint64
	seen := map[uint64]uint64{}
	for _, a := range t.Accesses {
		if a.Write {
			writes++
		}
		gaps += uint64(a.Gap)
		seen[a.LineAddr]++
	}
	fmt.Printf("trace: %s (instance %d, base %#x)\n", h.Benchmark, h.Instance, h.AddrBase)
	fmt.Printf("records:        %d\n", records)
	fmt.Printf("distinct lines: %d\n", len(seen))
	if records > 0 {
		fmt.Printf("write fraction: %.3f\n", float64(writes)/float64(records))
		fmt.Printf("mean gap:       %.1f instructions\n", float64(gaps)/float64(records))
		fmt.Printf("mean reuse:     %.2f accesses/line\n", float64(records)/float64(len(seen)))
	}
	return nil
}

func profileBench(bench string, n int) error {
	gen, err := workload.New(bench, 0, 0)
	if err != nil {
		return err
	}
	ex := sig.NewExtractor(workload.LineSize, 0xCAB1E)
	engines := []compress.Engine{
		compress.NewBDI(),
		compress.NewCPack("cpack", 64),
		compress.NewLBE("lbe256", 256),
	}
	var zeroLines, trivialWords, totalWords int
	sigOwners := map[sig.Signature]int{}
	encBits := make([]uint64, len(engines))
	var scr compress.Scratch
	for i := 0; i < n; i++ {
		a := gen.Next()
		line := gen.LineData(a.LineAddr)
		nt := sig.NonTrivialWords(line)
		totalWords += len(line) / 4
		trivialWords += len(line)/4 - nt
		if nt == 0 {
			zeroLines++
		}
		for _, s := range ex.InsertSignatures(line) {
			sigOwners[s]++
		}
		for e, eng := range engines {
			encBits[e] += uint64(eng.CompressScratch(&scr, line, nil).NBits)
		}
	}
	shared := 0
	for _, c := range sigOwners {
		if c >= 2 {
			shared++
		}
	}
	fmt.Printf("content profile: %s over %d accesses\n", bench, n)
	fmt.Printf("zero lines:          %.1f%%\n", 100*float64(zeroLines)/float64(n))
	fmt.Printf("trivial words:       %.1f%%\n", 100*float64(trivialWords)/float64(totalWords))
	fmt.Printf("shared signatures:   %d of %d (%.1f%%) — CABLE's reference pool\n",
		shared, len(sigOwners), 100*float64(shared)/float64(max(1, len(sigOwners))))
	for e, eng := range engines {
		ratio := float64(n*workload.LineSize*8) / float64(encBits[e])
		fmt.Printf("standalone %-8s %.2fx\n", eng.Name()+":", ratio)
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
