#!/bin/sh
# The pre-merge gate, and the only copy of it (`make check` calls this
# script): formatting, vet, the dependency-closure gate (no network or
# runtime-metrics package behind any binary), targeted race loops (the
# metrics registry, the generators and the cell memo, fault injection),
# the un-raced per-cell allocation byte budgets, fuzz smokes (payload
# faults, bit-IO parity, the LZSS window index and the LBE dictionary
# index against their retained scans, every engine's round trip and
# every decoder on arbitrary bits, the eviction-buffer ring against
# its retained map, the calendar event queue against its retained heap,
# seeded sources, workload specs, codec frames), the CLI
# determinism comparisons (fig12 under faults, the flight recorder's
# dumps for fig12 and fig13, breakdown through the cell memo, the report
# file, mesh with its flight windows, workload specs) and round-trip
# smokes (trace export, cablepipe with its cut and empty inputs that
# must fail, workload record -> replay),
# the million-transfer mesh fault soak, the million-copy codec wire
# fault census, the repository benchmark's smoke and harness tests, the
# one-surface gate (no `go test -bench` function outside benchmark/), the
# full test suite under the race detector, a shared-flag smoke of both
# report CLIs, then the product non-test Go LOC (benchmark/ excluded) and
# cablesim binary-size figures.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== dependency closure (no HTTP server, TLS stack or runtime/metrics)"
# Telemetry is read from the post-run dumps only, so nothing in the
# module may link a server: importing the encoder must mean an encoder.
if go list -deps ./... | grep -xE 'net/http|crypto/tls|runtime/metrics'; then
    echo "the packages above are in the module's dependency closure" >&2
    exit 1
fi

echo "== obs race loop"
# The metrics registry is the one structure every goroutine touches;
# hammer it separately (twice, fast) before the long full-suite run.
go test -race -count=2 ./internal/obs

echo "== generator + cell-memo race loop"
# The workload generators (one line buffer and one scratch rng each,
# never shared) and the experiment cell front end (8 concurrent requests
# for one cell through each simulator's descriptor). Fast targeted pass
# before the full -race suite reaches them.
go test -race -count=1 ./internal/workload
go test -race -count=1 -run 'TestRunCellSingleFlight|TestCellMemoReuse|TestMetricsDeterministic' ./internal/experiments

echo "== cell allocation budgets (bytes per transfer, no -race)"
# The byte pins of TestCellAllocBudgets hold at their real values only
# without the race detector (under it sync.Pool drops a quarter of its
# Puts and TotalAlloc grows; the -race suite below checks the counts
# only), so run them here once un-raced.
go test -count=1 -run 'TestCellAllocBudgets' ./internal/experiments

echo "== fault-injection race loop"
# One injector per simulation is the concurrency contract; the shared
# piece is the process-default metric counters. Hammer the injector
# (its package run includes TestCorruptMatchesReference, the register-
# held bit loop against the per-draw reference) and the three topology
# soaks under the race detector, along with the
# protocol pair's step tests and the golden hashes that pin every
# driver's results (clean and fault-injected) bit for bit.
go test -race -count=1 ./internal/fault
go test -race -count=1 -run 'FaultSoak|FaultDeterminism|ZeroRateInert|TestPairSteps|TestCheckSyncDetects|TestGoldenDrivers' ./internal/sim
go test -race -count=1 -run 'TestGoldenTopology' ./internal/topo

echo "== payload fault fuzz smoke"
# Short corruption fuzz over the link transfer's receive path, both
# directions: a bit-flipped and/or truncated guarded image is unguarded
# and decoded from the bits by a remote end's fill decoder and a home
# end's write-back decoder; every failure must surface as a classified
# error, never a panic.
go test -run=NOTHING -fuzz=FuzzPayloadDecodeFaults -fuzztime=10s ./internal/core

echo "== bit-IO word/reference parity fuzz smoke"
# Differential fuzz of the word-at-a-time bit stream against the
# retained per-bit reference implementation: random widths, interleaved
# bit/byte ops, truncated streams — images must stay byte-identical.
go test -run=NOTHING -fuzz=FuzzBitsWordParity -fuzztime=10s ./internal/bits

echo "== LZSS window-index parity fuzz smoke"
# Differential fuzz of the array-chained LZSS window index against the
# retained map-chain reference: random line streams at three window
# sizes, across trims and a Reset — every line's bits must be identical
# and decode back.
go test -run=NOTHING -fuzz=FuzzLZSSIndexParity -fuzztime=10s ./internal/compress

echo "== LBE dictionary-index parity fuzz smoke"
# Differential fuzz of LBE's indexed dictionary search against the
# retained linear scans: random line streams with 0-3 earlier lines as
# references, zero-heavy lines among them, at three dictionary sizes —
# every line's bits must be identical and decode back.
go test -run=NOTHING -fuzz=FuzzLBEIndexParity -fuzztime=10s ./internal/compress

echo "== engine round-trip and decoder-robustness fuzz smokes"
# Every engine of the test list on arbitrary lines and references: a valid
# stream must decode back to its line and stop on its last bit; arbitrary
# bits fed to any decoder must surface as an error, never a panic.
go test -run=NOTHING -fuzz=FuzzEngineRoundTrip -fuzztime=10s ./internal/compress
go test -run=NOTHING -fuzz=FuzzDecoderRobustness -fuzztime=10s ./internal/compress

echo "== eviction-buffer ring parity fuzz smoke"
# Differential fuzz of the §IV-A eviction buffer's recycled ring against
# the retained map-of-slices reference: arbitrary Add/Release/Reset
# sequences over eight slots, up to three evictions pending on one —
# Len, LastSeq and Resolve at every ack must agree after every step.
go test -run=NOTHING -fuzz=FuzzEvictionBufferParity -fuzztime=10s ./internal/core

echo "== event-queue parity fuzz smoke"
# Differential fuzz of the topology DES's calendar queue against the
# retained typed heap: arbitrary push/pop sequences, pushes up to nine
# windows ahead — every pop must be the heap's, (time, seq) ties included.
go test -run=NOTHING -fuzz=FuzzEventQueueParity -fuzztime=10s ./internal/topo

echo "== seeded-source parity fuzz smoke"
# Differential fuzz of the lazily seeded content rng against
# rand.NewSource: any seed, any draw count, fresh and reseeded
# instances — the streams must be identical.
go test -run=NOTHING -fuzz=FuzzSeededSourceParity -fuzztime=10s ./internal/workload

echo "== workload-spec parse fuzz smoke"
# Short fuzz over the spec DSL parser: arbitrary JSON must produce
# typed errors (ErrInvalid) or a valid workload, never a panic.
go test -run=NOTHING -fuzz=FuzzParseSpec -fuzztime=10s ./internal/workload/spec

echo "== trace-reader fuzz smoke"
# Short fuzz over the capture reader behind cable.LoadTrace: arbitrary
# bytes must give an error or a trace with the declared record count,
# never a panic, and allocate no more than the input's length bounds.
go test -run=NOTHING -fuzz=FuzzTraceReader -fuzztime=10s ./internal/trace

echo "== codec frame-decode fuzz smoke"
# Short fuzz over the streaming wire format: arbitrary bytes must
# surface as typed errors (ErrBadFrame or the core payload taxonomy),
# never a panic, and errors must be sticky across reads.
go test -run=NOTHING -fuzz=FuzzCodecFrameDecode -fuzztime=10s ./internal/codec

echo "== fault-injected determinism (same seed+rate, any -parallel)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/cablesim -exp fig12 -quick -parallel 1 -fault-rate 1e-3 -fault-seed 7 >"$tmpdir/p1.txt"
go run ./cmd/cablesim -exp fig12 -quick -parallel 8 -fault-rate 1e-3 -fault-seed 7 >"$tmpdir/p8.txt"
cmp "$tmpdir/p1.txt" "$tmpdir/p8.txt"

echo "== flight-recorder determinism (windows+timeline, any -parallel, memo on/off)"
# The flight recorder's dump files are keyed to virtual time, so they
# must be byte-identical across worker counts, GOMAXPROCS, and the
# cell-memo being on or off. Compare the adversarial corner (8 workers,
# memo disabled, 2 OS threads) against the serial memoized baseline.
# fig13's multichip cells are never memoized, so this is the only gate
# on their flight keys.
for exp in fig12 fig13; do
    go run ./cmd/cablesim -exp $exp -quick -parallel 1 \
        -windows "$tmpdir/$exp.w1.json" -timeline "$tmpdir/$exp.t1.json" >/dev/null
    GOMAXPROCS=2 go run ./cmd/cablesim -exp $exp -quick -parallel 8 -nomemo \
        -windows "$tmpdir/$exp.w8.json" -timeline "$tmpdir/$exp.t8.json" >/dev/null
    cmp "$tmpdir/$exp.w1.json" "$tmpdir/$exp.w8.json"
    cmp "$tmpdir/$exp.t1.json" "$tmpdir/$exp.t8.json"
done

echo "== breakdown determinism (memoized now)"
# The coverage table's cells are plain memory-link cells, so they run
# through the single-flight memo like fig12's: the table, the metrics
# dump and the windows must match between the serial memoized run and 8
# workers with the memo off on 2 OS threads.
go run ./cmd/cablesim -exp breakdown -quick -parallel 1 \
    -metrics "$tmpdir/bm1.json" -windows "$tmpdir/bw1.json" >"$tmpdir/b1.txt"
GOMAXPROCS=2 go run ./cmd/cablesim -exp breakdown -quick -parallel 8 -nomemo \
    -metrics "$tmpdir/bm8.json" -windows "$tmpdir/bw8.json" >"$tmpdir/b8.txt"
cmp "$tmpdir/b1.txt" "$tmpdir/b8.txt"
cmp "$tmpdir/bm1.json" "$tmpdir/bm8.json"
cmp "$tmpdir/bw1.json" "$tmpdir/bw8.json"

echo "== report determinism (one file, any -parallel, memo on/off)"
# The report file holds no wall clock, so the contract its header states
# is a plain cmp.
go run ./cmd/cablereport -exp fig12 -quick -parallel 1 -o "$tmpdir/r1.md"
GOMAXPROCS=2 go run ./cmd/cablereport -exp fig12 -quick -parallel 8 -nomemo -o "$tmpdir/r8.md"
cmp "$tmpdir/r1.md" "$tmpdir/r8.md"

echo "== trace-export smoke (record -> convert -> validate)"
go run ./tools/traceexport -in "$tmpdir/fig12.t1.json" -o "$tmpdir/trace.json"
go run ./tools/traceexport -validate "$tmpdir/trace.json"

echo "== cablepipe encode|decode pipe smoke"
# The codec CLI round trip at the process boundary: encode a real file,
# decode it back, demand byte identity.
go build -o "$tmpdir/cablepipe" ./cmd/cablepipe
"$tmpdir/cablepipe" -encode -stats <cable.go >"$tmpdir/c.cbl"
"$tmpdir/cablepipe" -decode <"$tmpdir/c.cbl" | cmp - cable.go
# Only the end frame ends a stream: a file cut one byte short, cut on the
# last frame boundary (the whole 19-byte end frame missing), cut in the
# middle, or empty (what `-decode </dev/null` reads) must make -decode
# exit non-zero.
size=$(wc -c <"$tmpdir/c.cbl")
for keep in $((size - 1)) $((size - 19)) $((size / 2)) 0; do
    if head -c "$keep" "$tmpdir/c.cbl" | "$tmpdir/cablepipe" -decode >/dev/null 2>&1; then
        echo "cablepipe -decode accepted the first $keep of $size encoded bytes" >&2
        exit 1
    fi
done

echo "== mesh determinism (table+metrics+windows, any -parallel, memo on/off)"
# The topology engine's bit-identity contract at the CLI surface: the
# rendered table, the deterministic metrics dump and the flight windows
# must match between a serial memoized run and 8 workers with the memo
# off on 2 OS threads. The windows' cell keys carry the config digest,
# which must leave Parallelism out.
go run ./cmd/cablesim -exp mesh -quick -parallel 1 -metrics "$tmpdir/mm1.json" \
    -windows "$tmpdir/mw1.json" >"$tmpdir/m1.txt"
GOMAXPROCS=2 go run ./cmd/cablesim -exp mesh -quick -parallel 8 -nomemo -metrics "$tmpdir/mm8.json" \
    -windows "$tmpdir/mw8.json" >"$tmpdir/m8.txt"
cmp "$tmpdir/m1.txt" "$tmpdir/m8.txt"
cmp "$tmpdir/mm1.json" "$tmpdir/mm8.json"
cmp "$tmpdir/mw1.json" "$tmpdir/mw8.json"

echo "== workload spec record -> replay -> compare smoke"
# The record→replay contract at the CLI surface: capture the example
# mix's per-client streams, replay them through the same spec at the
# adversarial corner (8 workers, memo off, 2 OS threads), and demand
# the identical ratio table as the serial memoized live run. Notes are
# dropped from the comparison — they name the source mode.
go run ./cmd/cabletrace -spec examples/workloads/bursty-mix.json -n 24000 -o "$tmpdir/mix" >/dev/null
go run ./cmd/cablesim -exp workload -quick -parallel 1 \
    -workload-spec examples/workloads/bursty-mix.json | grep -v '^note:' >"$tmpdir/wl-live.txt"
GOMAXPROCS=2 go run ./cmd/cablesim -exp workload -quick -parallel 8 -nomemo \
    -workload-spec examples/workloads/bursty-mix.json \
    -replay "$tmpdir/mix.frontend.trace,$tmpdir/mix.batch.trace" | grep -v '^note:' >"$tmpdir/wl-replay.txt"
cmp "$tmpdir/wl-live.txt" "$tmpdir/wl-replay.txt"

echo "== mesh workload-spec determinism (any -parallel, memo on/off)"
# The same spec through the topology DES: bit-identical tables between
# a serial memoized run and 8 workers, memo off, 2 OS threads.
go run ./cmd/cablesim -exp mesh -quick -parallel 1 \
    -workload-spec examples/workloads/bursty-mix.json >"$tmpdir/ms1.txt"
GOMAXPROCS=2 go run ./cmd/cablesim -exp mesh -quick -parallel 8 -nomemo \
    -workload-spec examples/workloads/bursty-mix.json >"$tmpdir/ms8.txt"
cmp "$tmpdir/ms1.txt" "$tmpdir/ms8.txt"

echo "== mesh determinism under 2 workers (-race)"
# Same contract at the engine level with the race detector watching the
# per-link worker pool: every shape, clean and fault-injected.
GOMAXPROCS=2 go test -race -count=1 -run 'TestRunDeterministicAcrossParallelism' ./internal/topo

echo "== mesh fault soak (1M transfers)"
# make soak-mesh: the 16-chip mesh through a million fault-injected
# transfers — zero panics, every corrupted frame counted and recovered
# by exactly one raw resend.
CABLE_MESH_SOAK_TRANSFERS=1000000 go test -count=1 -run 'TestMeshSoak' ./internal/topo

echo "== codec wire fault census (1M damaged copies)"
# internal/fault's injector over the codec's wire — 2 and 8 bit flips a
# copy, and cuts at a random bit — a million damaged copies through one
# Reset decoder: every one an error or the original output, none silent.
CABLE_WIRE_CENSUS_COPIES=1000000 go test -count=1 -run 'TestWireFaultCensus' -v ./internal/codec

echo "== parallel determinism under 2 workers (-race)"
# The in-tree gate for the runner's bit-identity contract, clean and
# fault-injected, under a deliberately tiny GOMAXPROCS so the pool is
# oversubscribed and interleavings are forced.
GOMAXPROCS=2 go test -race -run TestParallelDeterminism -count=1 ./internal/experiments

echo "== repository benchmark smoke + harness tests"
# benchmark/ is a module of its own, invisible to the root `go test
# ./...`: run every workload and ladder rung at tiny sizes, then the
# harness's own tests.
bash benchmark/run.sh -smoke
(cd benchmark && go test ./...)

echo "== one benchmark surface"
# bash benchmark/run.sh is the only place this tree is timed: its ladder
# has a rung for every layer, so a go test -bench function elsewhere
# would be a second, ungated copy of one.
if grep -rln '^func Benchmark' --include='*_test.go' . | grep -v '^./benchmark/'; then
    echo "the files above define go test benchmarks outside benchmark/" >&2
    exit 1
fi

echo "== go test -race"
# The race detector is ~5x CPU; the experiment drivers need more than
# the 10m default on small CI machines.
go test -race -timeout 45m ./...

echo "== shared-flag smoke (cablesim + cablereport, every dump flag)"
# Both binaries take their common flags from internal/cli: run each with
# the dump flags and the scheduling knobs spelled out, and demand that
# all three dump files exist and parse as JSON (checked by a throwaway
# Go program, so the gate needs nothing but the toolchain).
cat >"$tmpdir/jsonok.go" <<'GOEOF'
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	for _, p := range os.Args[1:] {
		if b, err := os.ReadFile(p); err != nil || !json.Valid(b) {
			fmt.Fprintln(os.Stderr, "not a JSON file:", p, err)
			os.Exit(1)
		}
	}
}
GOEOF
for bin in cablesim cablereport; do
    own=""
    if [ "$bin" = cablereport ]; then own="-o /dev/null"; fi
    GOMAXPROCS=2 go run ./cmd/$bin -exp tab3 -quick $own -parallel 2 -nomemo \
        -metrics "$tmpdir/$bin.m.json" -windows "$tmpdir/$bin.w.json" -timeline "$tmpdir/$bin.t.json" >/dev/null
    go run "$tmpdir/jsonok.go" "$tmpdir/$bin.m.json" "$tmpdir/$bin.w.json" "$tmpdir/$bin.t.json"
done

# The reproducible size figures simplicity PRs cite: product non-test Go
# (the benchmark harness under benchmark/ excluded, as in ROADMAP.md)
# and the cablesim binary.
go build -o "$tmpdir/cablesim" ./cmd/cablesim
echo "product non-test Go LOC (excl. benchmark/): $(git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l); cablesim binary: $(wc -c <"$tmpdir/cablesim") bytes"

echo "ci: OK"
