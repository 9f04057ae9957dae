package cli

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"cable"
)

// TestSharedFlagParity builds both binaries and runs each with every
// flag Register declares spelled out on the command line: a flag one
// binary stopped accepting makes its run exit non-zero.
func TestSharedFlagParity(t *testing.T) {
	fs := flag.NewFlagSet("shared", flag.ContinueOnError)
	Register(fs, Help{})
	var args []string
	fs.VisitAll(func(fl *flag.Flag) {
		v := fl.DefValue
		switch fl.Name {
		case "exp":
			v = "tab3" // area arithmetic: no simulation behind it
		case "quick":
			v = "true"
		}
		args = append(args, "-"+fl.Name+"="+v)
	})
	if len(args) != 15 {
		t.Fatalf("Register declared %d shared flags, the binaries' docs count 15", len(args))
	}

	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "cable/cmd/cablesim", "cable/cmd/cablereport")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for name, own := range map[string][]string{
		"cablesim":    nil,
		"cablereport": {"-o", os.DevNull},
	} {
		cmd := exec.Command(filepath.Join(bin, name), append(args, own...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("%s %v: %v\n%s", name, cmd.Args[1:], err, out)
		}
	}
}

// TestEncodedBytesSkipMemoHits runs one memoized cell twice in a
// process: the second request is served from the cell memo, which
// merges the cell's core.source_bits into the default registry again,
// and must add nothing to what Finish reports as encoded. The memo
// account on the same stderr line must say so: the second run's
// requests are all hits, as many as the first run's misses.
func TestEncodedBytesSkipMemoHits(t *testing.T) {
	fs := flag.NewFlagSet("shared", flag.ContinueOnError)
	f := Register(fs, Help{})
	if err := fs.Parse([]string{"-exp=workload", "-quick", "-workload-spec=../../examples/workloads/bursty-mix.json"}); err != nil {
		t.Fatal(err)
	}
	opt, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	var encoded [2]uint64
	var hits, misses, bypasses [3]uint64 // before, after the computed run, after the memo hit
	account := func(i int) {
		if _, err := fmt.Sscanf(memoAccount(), "memo: %d hits / %d misses / %d bypasses", &hits[i], &misses[i], &bypasses[i]); err != nil {
			t.Fatalf("memoAccount() = %q: %v", memoAccount(), err)
		}
	}
	account(0)
	for i := range encoded {
		if _, err := cable.RunExperiment(f.Exp, opt); err != nil {
			t.Fatal(err)
		}
		encoded[i] = encodedBytes() - f.srcBytes
		account(i + 1)
	}
	if encoded[0] == 0 || encoded[1] != encoded[0] {
		t.Fatalf("encoded bytes after the computed run and after the memo hit: %d, %d; want equal and non-zero", encoded[0], encoded[1])
	}
	computed := misses[1] - misses[0]
	if computed == 0 || hits[1] != hits[0] || misses[2] != misses[1] || hits[2]-hits[1] != computed || bypasses[2] != bypasses[0] {
		t.Fatalf("memo account hits %v misses %v bypasses %v (before, computed run, memo-served run); want the first run all misses, the second as many hits, no bypass", hits, misses, bypasses)
	}
}
