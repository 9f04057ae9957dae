package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"cable"
	"cable/internal/experiments"
	"cable/internal/fault"
	"cable/internal/obs"
)

// Sizes of the whole-driver rungs: each is about a second on the seed
// commit at full size.
type driverSizes struct {
	rttFrames     int // round trips of the tail-latency rung
	meshTransfers int
	cellAccesses  int // memory-link cell, meters on
	protoAccesses int // memory-link protocol run, meters off (the old BenchmarkMemLinkProtocol)
	protoRuns     int
	multiAccesses int
	nonIncl       int
	timingInstr   uint64
	suite         []string
}

var fullDriverSizes = driverSizes{
	rttFrames:     20000,
	meshTransfers: 100000,
	cellAccesses:  36000,
	protoAccesses: 2000,
	protoRuns:     15,
	multiAccesses: 35000,
	nonIncl:       90000,
	timingInstr:   400000,
	suite:         suiteIDs,
}

var smokeDriverSizes = driverSizes{
	rttFrames:     64,
	meshTransfers: 3000,
	cellAccesses:  2000,
	protoAccesses: 500,
	protoRuns:     2,
	multiAccesses: 2000,
	nonIncl:       2000,
	timingInstr:   5000,
	suite:         []string{"tab3"},
}

// once times one call of fn under a span, in seconds.
func (p *probe) once(name string, fn func()) float64 {
	id := p.tr.begin(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.tr.end(id)
	return d.Seconds()
}

// widen runs fn with every CPU of the machine available to the Go
// scheduler and then returns to the one P the rest of the run uses. It
// hands fn, and returns, the number of CPUs.
func (p *probe) widen(fn func(cpus int)) int {
	cpus := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus))
	fn(cpus)
	return cpus
}

// waitWriter and waitReader time the calls that cross the socket.
type waitWriter struct {
	w     io.Writer
	calls atomic.Int64
	bytes atomic.Int64
	ns    atomic.Int64
}

func (w *waitWriter) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := w.w.Write(b)
	w.ns.Add(int64(time.Since(t0)))
	w.calls.Add(1)
	w.bytes.Add(int64(n))
	return n, err
}

type waitReader struct {
	r  io.Reader
	ns atomic.Int64
}

func (r *waitReader) Read(b []byte) (int, error) {
	t0 := time.Now()
	n, err := r.r.Read(b)
	r.ns.Add(int64(time.Since(t0)))
	return n, err
}

// cablepipe measures the socket path of cmd/cablepipe on the workload's
// stream: bulk transfers with emission pipelined and direct, where the
// time of a transfer goes, tail latency of flushed frames, and the
// built binary end to end.
func (p *probe) cablepipe() {
	sz := p.e.sz.drivers
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	r := &pipeRunner{ln: ln, payload: p.stream, fw: newFlitWriter(), out: make([]byte, len(p.stream)), dec: cable.NewStreamDecoder(nil)}
	defer r.close()
	size := float64(len(p.stream))

	bulk := func(name string, pipeline bool) *cable.StreamEncoder {
		enc, err := cable.NewStreamEncoder(io.Discard, cable.StreamOptions{Pipeline: pipeline})
		if err != nil {
			panic(err)
		}
		var rates []float64
		for i := 0; i < probePasses; i++ {
			u, err := r.bulk(p.tr, enc, nil, nil)
			p.check(err == nil && bytes.Equal(r.out, p.stream), "cablepipe %s: transfer failed or decoded differently: %v", name, err)
			rates = append(rates, mbPerS(size, u.wall))
		}
		p.set("cablepipe.bulk_"+name+"_mb_per_s", median(rates))
		return enc
	}
	bulk("direct", false)
	enc := bulk("pipelined", true)

	// One more pipelined transfer with clocks around the socket calls.
	var ww *waitWriter
	var wr *waitReader
	u, err := r.bulk(p.tr, enc,
		func(w io.Writer) io.Writer { ww = &waitWriter{w: w}; return ww },
		func(rd io.Reader) io.Reader { wr = &waitReader{r: rd}; return wr })
	p.check(err == nil, "cablepipe: instrumented transfer: %v", err)
	st := enc.Stats
	frames := st.CableFrames + st.RawFrames
	if st.TailBytes > 0 {
		frames++
	}
	p.set("cablepipe.sink_wait_share", float64(ww.ns.Load())/float64(u.wall))
	p.set("cablepipe.source_wait_share", float64(wr.ns.Load())/float64(u.wall))
	p.set("cablepipe.writes_per_frame", float64(ww.calls.Load())/float64(frames))
	p.set("cablepipe.bytes_per_write", float64(ww.bytes.Load())/float64(ww.calls.Load()))

	lat, _, err := r.roundTrips(enc, sz.rttFrames, nil)
	p.check(err == nil, "cablepipe: round trips: %v", err)
	asc := sorted(lat)
	p.set("cablepipe.frame_rtt_p99_us", percentile(asc, 0.99))
	p.set("cablepipe.frame_rtt_p999_us", percentile(asc, 0.999))
	if top, ok := highestPercentile(len(lat)); !ok || top < 0.999 {
		p.res.notes = append(p.res.notes, fmt.Sprintf("cablepipe.frame_rtt tails rest on %d round trips: fewer than ten samples lie beyond p99.9", len(lat)))
	}

	// Write+Flush of the same frames with nothing on the other side.
	var sink countingDiscard
	mem, err := cable.NewStreamEncoder(&sink, cable.StreamOptions{Pipeline: true})
	if err != nil {
		panic(err)
	}
	enclat := make([]float64, 0, sz.rttFrames)
	id := p.tr.begin("codec.Encoder.Write+Flush")
	for k := 0; k < sz.rttFrames; k++ {
		f := frameOf(p.stream, k)
		t0 := time.Now()
		_, werr := mem.Write(f)
		ferr := mem.Flush()
		enclat = append(enclat, float64(time.Since(t0))/1e3)
		if werr != nil || ferr != nil {
			panic(fmt.Sprint(werr, ferr))
		}
	}
	p.tr.end(id)
	if err := mem.Close(); err != nil {
		panic(err)
	}
	p.set("cablepipe.frame_encode_p50_us", median(enclat))

	p.set("cablepipe.cli_roundtrip_mb_per_s", p.cliRoundTrip())
}

// cliRoundTrip builds cmd/cablepipe and pipes the stream through
// `cablepipe -encode | cablepipe -decode`, once.
func (p *probe) cliRoundTrip() float64 {
	bin := filepath.Join(p.root, ".bench_build", "cablepipe")
	build := exec.Command("go", "build", "-o", bin, "cable/cmd/cablepipe")
	build.Dir = filepath.Join(p.root, "benchmark")
	if out, err := build.CombinedOutput(); err != nil {
		panic(fmt.Sprintf("go build cable/cmd/cablepipe: %v\n%s", err, out))
	}
	encode := exec.Command(bin, "-encode")
	decode := exec.Command(bin, "-decode")
	encode.Stdin = bytes.NewReader(p.stream)
	var out bytes.Buffer
	out.Grow(len(p.stream))
	decode.Stdout = &out
	encode.Stderr, decode.Stderr = os.Stderr, os.Stderr
	pipe, err := encode.StdoutPipe()
	if err != nil {
		panic(err)
	}
	decode.Stdin = pipe
	secs := p.once("cablepipe -encode | cablepipe -decode", func() {
		if err := decode.Start(); err != nil {
			panic(err)
		}
		// Run waits for encode; decode then sees the pipe close.
		eerr := encode.Run()
		derr := decode.Wait()
		p.check(eerr == nil && derr == nil, "cablepipe binary: encode %v, decode %v", eerr, derr)
	})
	p.check(bytes.Equal(out.Bytes(), p.stream), "cablepipe binary: round trip changed the stream")
	return float64(len(p.stream)) / 1e6 / secs
}

// topo measures the topology engine and the fault layer on the soak's
// configuration.
func (p *probe) topo() {
	sz := p.e.sz.drivers
	run := func(parallelism int) (*cable.TopologyResult, usage) {
		cfg := meshConfig(p.e, sz.meshTransfers, parallelism)
		id := p.tr.begin(fmt.Sprintf("topo.Run/parallelism=%d", parallelism))
		s := takeSnap()
		res, err := cable.RunTopology(cfg)
		u := since(s)
		p.tr.end(id)
		if err != nil {
			panic(err)
		}
		return res, u
	}
	run(1) // fill the pools
	res, u := run(1)
	var wide *cable.TopologyResult
	var uw usage
	cpus := p.widen(func(n int) { wide, uw = run(n) })
	p.check(fmt.Sprintf("%+v", *res) == fmt.Sprintf("%+v", *wide), "topo: result differs between Parallelism 1 and %d", cpus)
	xfers := float64(res.LinkTransfers)
	p.set("topo.run_s", u.wall.Seconds())
	p.set("topo.transfers_per_s", xfers/u.wall.Seconds())
	p.set("topo.allocs_per_transfer", float64(u.mallocs)/xfers)
	p.set("topo.alloc_bytes_per_transfer", float64(u.bytes)/xfers)
	p.set("topo.parallel_speedup", u.wall.Seconds()/uw.wall.Seconds())
	p.set("topo.mean_link_util", res.MeanUtilization())
	p.set("topo.remote_hit_share", float64(res.RemoteHits)/xfers)
	p.set("fault.injected_share", float64(res.FaultsInjected)/xfers)
	p.set("fault.detected_share", float64(res.DecodeErrors)/float64(res.FaultsInjected))
	p.set("fault.raw_fallback_share", float64(res.RawFallbacks)/xfers)
	p.check(res.DecodeErrors <= res.FaultsInjected, "topo: %d decode errors from %d injected faults", res.DecodeErrors, res.FaultsInjected)

	// The injector alone, on raw 512-bit images of the stream. Corrupt
	// works in place, so each line is copied into a scratch image first;
	// the copy is part of the rung.
	inj := fault.NewIn(fault.Config{BitRate: 1e-3, Seed: uint64(p.e.seed)}, obs.NewRegistry())
	img := make([]byte, lineSize)
	n := p.lines()
	p.set("fault.corrupt_ns_per_line", p.timed("fault.Injector.Corrupt", n, func() {
		for s := 0; s < n; s++ {
			copy(img, p.line(s))
			inj.Corrupt(img, lineSize*8)
		}
	}))
}

// sim calls each hand-written driver directly, with access counts fixed
// so that each call is about a second on the seed commit.
func (p *probe) sim() {
	sz := p.e.sz.drivers
	cell := func(name string, tune func(*cable.MemoryLinkConfig)) float64 {
		cfg := cable.DefaultMemoryLinkConfig("dealII")
		cfg.AccessesPerProgram = sz.cellAccesses
		tune(&cfg)
		return p.once(name, func() {
			if _, err := cable.RunMemoryLink(cfg); err != nil {
				panic(err)
			}
		})
	}
	cell("sim.RunMemoryLink/warm", func(*cable.MemoryLinkConfig) {})
	plain := cell("sim.RunMemoryLink/meters", func(*cable.MemoryLinkConfig) {})
	rec := cell("sim.RunMemoryLink/meters+recorder", func(c *cable.MemoryLinkConfig) {
		c.Recorder = cable.NewFlightRecorder(cable.FlightConfig{})
	})
	trc := cell("sim.RunMemoryLink/meters+tracer", func(c *cable.MemoryLinkConfig) {
		c.Trace = cable.NewEncodeTracer(1024, 64)
	})
	p.set("sim.memlink_cell_s", plain)
	p.set("sim.recorder_overhead_share", rec/plain-1)
	p.set("sim.tracer_overhead_share", trc/plain-1)

	proto := cable.DefaultMemoryLinkConfig("dealII")
	proto.AccessesPerProgram = sz.protoAccesses
	proto.WithMeters = false
	proto.Chip.LLCBytes = 256 << 10
	proto.Chip.L4Bytes = 1 << 20
	var secs, allocs []float64
	for i := 0; i < sz.protoRuns; i++ {
		id := p.tr.begin("sim.RunMemoryLink/protocol")
		s := takeSnap()
		_, err := cable.RunMemoryLink(proto)
		u := since(s)
		p.tr.end(id)
		if err != nil {
			panic(err)
		}
		secs = append(secs, u.wall.Seconds())
		allocs = append(allocs, float64(u.mallocs))
	}
	p.set("sim.memlink_protocol_s", median(secs))
	p.set("sim.memlink_protocol_allocs", median(allocs))

	multi := cable.DefaultMultiChipConfig("dealII")
	multi.Accesses = sz.multiAccesses
	p.set("sim.multichip_s", p.once("sim.RunMultiChip", func() {
		if _, err := cable.RunMultiChip(multi); err != nil {
			panic(err)
		}
	}))
	ni := cable.DefaultNonInclusiveConfig("dealII")
	ni.Accesses = sz.nonIncl
	p.set("sim.noninclusive_s", p.once("sim.RunNonInclusive", func() {
		if _, err := cable.RunNonInclusive(ni); err != nil {
			panic(err)
		}
	}))
	timing := cable.DefaultTimingConfig("cable", "dealII")
	timing.InstrPerTh = sz.timingInstr
	p.set("sim.timing_s", p.once("sim.RunTiming", func() {
		if _, err := cable.RunTiming(timing); err != nil {
			panic(err)
		}
	}))
}

// experiments runs the suite three ways: memoised and serial (the way
// sim_suite runs it on its one CPU), unmemoised and serial, and
// unmemoised and parallel. All three must render the same tables.
func (p *probe) experiments() {
	sz := p.e.sz.drivers
	type pass struct {
		secs   float64
		digest [sha256.Size]byte
		byID   map[string]float64
	}
	run := func(name string, opt cable.ExperimentOptions) pass {
		experiments.ResetCellMemo()
		cable.ResetMetrics()
		out := pass{byID: map[string]float64{}}
		var results []*cable.ExperimentResult
		out.secs = p.once("experiments.RunAllStream/"+name, func() {
			for r := range cable.StreamExperiments(sz.suite, opt) {
				if r.Err != nil {
					panic(r.Err)
				}
				out.byID[r.ID] = r.Elapsed.Seconds()
				results = append(results, r.Result)
			}
		})
		out.digest = tablesDigest(results)
		return out
	}
	memo := run("memo,serial", cable.ExperimentOptions{Quick: true, Parallelism: 1})
	c := obs.Default().Snapshot(true).Counters
	hits, misses := c["experiments.cellmemo_hits"], c["experiments.cellmemo_misses"]
	nomemo := run("nomemo,serial", cable.ExperimentOptions{Quick: true, Parallelism: 1, DisableCellMemo: true})
	var wide pass
	p.widen(func(n int) {
		wide = run("nomemo,parallel", cable.ExperimentOptions{Quick: true, Parallelism: n, DisableCellMemo: true})
	})
	p.check(nomemo.digest == memo.digest, "experiments: tables differ between the memoised and the unmemoised serial pass")
	p.check(wide.digest == memo.digest, "experiments: tables differ between the memoised serial pass and the unmemoised parallel pass")

	for _, id := range suiteIDs {
		// An experiment the smoke size leaves out reads 0.
		p.set("experiments."+id+"_s", memo.byID[id])
	}
	p.set("experiments.memo_hit_share", float64(hits)/float64(max(hits+misses, 1)))
	p.set("experiments.memo_speedup", nomemo.secs/memo.secs)
	p.set("experiments.parallel_speedup", nomemo.secs/wide.secs)
}

// obs prices the telemetry primitives. It runs after the simulator
// rungs, so the process registry is as full as a report run leaves it.
func (p *probe) obs() {
	const adds = 1 << 22
	c := obs.NewRegistry().Counter("bench.counter")
	shard := obs.NextShard()
	p.set("obs.counter_add_ns", p.timed("obs.Counter.Add", adds, func() {
		for i := 0; i < adds; i++ {
			c.Add(shard, 1)
		}
	}))
	p.check(c.Value() == adds*probePasses, "obs: counter reads %d after %d adds", c.Value(), adds*probePasses)
	const snaps = 200
	p.set("obs.snapshot_us", p.timed("obs.Registry.Snapshot", snaps, func() {
		for i := 0; i < snaps; i++ {
			obs.Default().Snapshot(true)
		}
	})/1e3)
}
