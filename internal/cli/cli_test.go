package cli

import (
	"flag"
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
	Register(fs, "test", Help{})
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
	if len(args) != 16 {
		t.Fatalf("Register declared %d shared flags, the binaries' docs count 16", len(args))
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
// and must add nothing to what Finish reports as encoded.
func TestEncodedBytesSkipMemoHits(t *testing.T) {
	fs := flag.NewFlagSet("shared", flag.ContinueOnError)
	f := Register(fs, "test", Help{})
	if err := fs.Parse([]string{"-exp=workload", "-quick", "-workload-spec=../../examples/workloads/bursty-mix.json"}); err != nil {
		t.Fatal(err)
	}
	opt, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	var encoded [2]uint64
	for i := range encoded {
		if _, err := cable.RunExperiment(f.Exp, opt); err != nil {
			t.Fatal(err)
		}
		encoded[i] = encodedBytes() - f.srcBytes
	}
	if encoded[0] == 0 || encoded[1] != encoded[0] {
		t.Fatalf("encoded bytes after the computed run and after the memo hit: %d, %d; want equal and non-zero", encoded[0], encoded[1])
	}
}
