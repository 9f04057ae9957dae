package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
)

// repoLayers are the modules of this repository that get a rung of
// their own; their names prefix the per-layer metrics. The remaining
// internal packages (dram, energy, mem, stats, trace) land in "other"
// until a profile shows one above 2% of a workload.
var repoLayers = []string{
	"bits", "sig", "compress", "cache", "core", "codec", "link",
	"fault", "workload", "sim", "topo", "experiments", "obs",
}

// profGroups are the groups CPU samples are attributed to, in the order
// of the prof.<group>_cpu_share metrics. math/rand has a group of its
// own because the seed's profiles show it at 45% of mesh_soak: the
// workload generator reseeds a math/rand source for every line it
// materialises, and a flat profile charges that to math/rand.
var profGroups = append(append([]string(nil), repoLayers...),
	"runtime_gc", "runtime_alloc", "runtime_sched", "syscall", "math_rand", "other")

// startProfile starts a CPU profile into path; the returned function
// stops it and closes the file.
func startProfile(path string) (stop func() error, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// profileShares runs `go tool pprof -top` over a CPU profile and groups
// its flat samples. The shares sum to 1. The second result names the
// largest symbols that fell into "other", for the reader of a run.
func profileShares(path string) (map[string]float64, []string, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", path)
	// pprof keeps scratch files under $PPROF_TMPDIR; keep them beside
	// the profile, inside the checkout.
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(path))
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go tool pprof -top %s: %w", path, err)
	}
	return groupTop(string(out))
}

// groupTop parses the text `pprof -top` prints and returns each
// group's share of the flat samples (all zero when there are none).
func groupTop(top string) (map[string]float64, []string, error) {
	type symbol struct {
		name string
		flat float64
	}
	var other []symbol
	shares := map[string]float64{}
	for _, g := range profGroups {
		shares[g] = 0
	}
	var total float64
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(top))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		// flat flat% sum% cum cum% name...
		if len(fields) < 6 {
			continue
		}
		flat, err := parseProfValue(fields[0])
		if err != nil {
			return nil, nil, fmt.Errorf("pprof -top row %q: %w", sc.Text(), err)
		}
		fn := strings.Join(fields[5:], " ")
		fn = strings.TrimSuffix(fn, " (inline)")
		g := profGroup(fn)
		shares[g] += flat
		total += flat
		if g == "other" && flat > 0 {
			other = append(other, symbol{fn, flat})
		}
	}
	if !inTable {
		return nil, nil, fmt.Errorf("pprof -top output has no table header")
	}
	if total == 0 {
		return shares, nil, nil // a region too short for a single sample
	}
	for g := range shares {
		shares[g] /= total
	}
	sort.SliceStable(other, func(i, j int) bool { return other[i].flat > other[j].flat })
	var names []string
	for _, s := range other[:min(len(other), 5)] {
		names = append(names, fmt.Sprintf("%s %.1f%%", s.name, 100*s.flat/total))
	}
	return shares, names, nil
}

// parseProfValue reads a pprof duration such as "0.45s", "10ms" or
// "1.2mins" as seconds.
func parseProfValue(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"hrs", 3600}, {"mins", 60}, {"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64) // a bare 0
}

// funcPackage returns the import path of a symbol as pprof prints it:
// "cable/internal/compress.(*LBE).Compress" → "cable/internal/compress".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// Prefixes of runtime symbols (after "runtime.") by what their time
// buys. The lists are a heuristic over the symbols the seed's profiles
// show; anything of the runtime they miss (memmove, map access, ...) is
// work on behalf of the calling layer that a flat profile cannot
// attribute, and counts as other.
var (
	runtimeGC = []string{"gc", "bgsweep", "bgscavenge", "scan", "grey", "mark", "sweep", "deductSweepCredit",
		"wbBuf", "findObject", "typePointers", "(*gcWork)", "(*gcBits", "(*sweepLock", "(*spanSet)",
		"(*mspan).typePointers", "(*mspan).sweep"}
	runtimeAlloc = []string{"malloc", "newobject", "makeslice", "growslice", "nextFreeFast", "memclr",
		"heapSetType", "publicationBarrier", "madvise", "mergeSummaries", "acquirem", "releasem",
		"(*mcache)", "(*mcentral)", "(*mheap)", "(*mspan).init", "(*fixalloc)", "(*pageAlloc)", "(*sysMemStat)"}
	runtimeSched = []string{"schedule", "findRunnable", "park", "gopark", "goready", "ready", "runq", "stealWork",
		"netpoll", "chan", "selectgo", "lock", "unlock", "futex", "note", "usleep", "osyield", "procyield",
		"mcall", "gogo", "execute", "wakep", "startm", "stopm", "asyncPreempt", "preempt", "tgkill", "sig",
		"sema", "(*timer", "casgstatus", "entersyscall", "exitsyscall", "reentersyscall", "sysmon", "retake"}
	syscallPkgs = []string{"syscall", "internal/runtime/syscall", "runtime/internal/syscall", "internal/poll", "net", "os"}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// profGroup attributes one symbol to a group of profGroups.
func profGroup(fn string) string {
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, "cable/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		for _, l := range repoLayers {
			if top == l {
				return l
			}
		}
		return "other"
	}
	for _, p := range syscallPkgs {
		if pkg == p {
			return "syscall"
		}
	}
	if pkg == "math/rand" {
		return "math_rand"
	}
	if pkg == "runtime" {
		sym := strings.TrimPrefix(fn, "runtime.")
		switch {
		case hasAnyPrefix(sym, runtimeGC):
			return "runtime_gc"
		case hasAnyPrefix(sym, runtimeAlloc):
			return "runtime_alloc"
		case hasAnyPrefix(sym, runtimeSched):
			return "runtime_sched"
		}
	}
	return "other"
}
