# Tier-1 verification (ROADMAP.md): build + tests.
.PHONY: all build test check bench bench-json bench-scaling report soak-mesh

all: build test

build:
	go build ./...

test:
	go test ./...

# check is the pre-merge gate; ci/check.sh is its one definition.
check:
	bash ci/check.sh

# bench runs the hot-path microbenchmarks in benchstat-friendly form
# (10 samples each); pipe the output of two builds into benchstat.
bench:
	go test -run xxx -bench 'BenchmarkEncodeFill|BenchmarkDecodeFill|BenchmarkEngineCompress' -benchmem -count 10 .

# bench-json snapshots the headline benchmarks (end-to-end protocol,
# full quick-scale report, hot encode path, the topology soak, the
# word-level bit-IO / signature-scan kernels, and the streaming codec
# vs gzip/LZSS) as committed JSON, so perf PRs carry machine-readable
# before/after numbers. The gated anchors shared with BENCH_pr8.json
# are BenchmarkEncodeFill and BenchmarkMemLinkProtocol: both are
# single-threaded and stable across sessions. BenchmarkEncodeBatch is
# deliberately excluded — it spawns a worker pool, so its number tracks
# container load, not code, and would trip the 10% cross-snapshot gate
# on noise (it still runs in make check's bench smoke). Likewise
# BenchmarkRunAllSerial as of this snapshot: it allocates ~73 MB/op, so
# its time is GC- and VM-load-bound — same-code A/B runs spread 22-31
# ms/op on the shared container, and the pr8 sample sits outside what
# pr8's own code reproduces today, so gating it compares weather, not
# code (it still runs in make check's bench smoke). Each benchmark
# runs -count 5 and benchjson keeps the fastest sample: minimum-of-N
# discards VM scheduler noise, which otherwise dwarfs real deltas.
bench-json:
	{ go test -run xxx -bench 'BenchmarkMemLinkProtocol$$|BenchmarkEncodeFill$$|BenchmarkMeshSoak$$|BenchmarkCodecStream' -benchmem -count 5 . ; \
	  go test -run xxx -bench 'BenchmarkWriteBits$$|BenchmarkReadBits$$' -benchmem -count 5 ./internal/bits ; \
	  go test -run xxx -bench 'BenchmarkSigScan$$' -benchmem -count 5 ./internal/sig ; } \
		| go run ./tools/benchjson > BENCH_pr10.json

# bench-scaling snapshots the multi-core story as BENCH_pr6.json: the
# experiment-runner and protocol scaling curves at GOMAXPROCS 1/2/4/8/16
# (one binary, go test -cpu, so every point shares code and workload)
# plus the batched-encode headline. tools/benchjson derives speedup and
# per-core efficiency from the -N name suffixes. On a 1-vCPU container
# the >1-cpu points measure oversubscription, not speedup — DESIGN.md's
# "Multi-core scaling" section carries the mutex/block-profile evidence
# instead.
bench-scaling:
	{ go test -run xxx -bench 'BenchmarkRunAllScaling$$|BenchmarkMemLinkProtocolScaling$$' -benchmem -cpu 1,2,4,8,16 -count 1 . ; \
	  go test -run xxx -bench 'BenchmarkEncodeFill$$|BenchmarkEncodeBatch$$' -benchmem -count 1 . ; } \
		| go run ./tools/benchjson > BENCH_pr6.json

# soak-mesh drives the 16-chip mesh through 1M fault-injected transfers
# (the PR-acceptance run used 10M via CABLE_MESH_SOAK_TRANSFERS=10000000):
# zero panics, every corrupted frame counted and recovered.
soak-mesh:
	CABLE_MESH_SOAK_TRANSFERS=1000000 go test -count=1 -run 'TestMeshSoak' -v ./internal/topo

report:
	go run ./cmd/cablereport -quick
