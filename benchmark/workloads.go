package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"cable"
	"cable/internal/experiments"
	"cable/internal/link"
	"cable/internal/obs"
)

// sizes fixes how much work one repetition of each workload does. The
// full sizes are what the benchmark measures; the smoke sizes only
// prove that every path runs.
type sizes struct {
	codecLines    int      // lines of a codec_* payload
	pipeLines     int      // lines of the pipe_tcp payload, half trace and half mix
	codecFrames   int      // 2 KiB frames per repetition, in memory
	pipeFrames    int      // 2 KiB frames per repetition, over TCP
	meshTransfers int      // link transfers per mesh run
	meshWarm      int      // link transfers of the mesh warm-up in set-up
	suite         []string // experiments per sim_suite repetition
	suiteLines    float64  // source lines one sim_suite repetition pushes through the encoders
	nonInclusive  int      // accesses of the non-inclusive run (0 = the shipped default)
	ladderLines   int      // lines replayed through each rung of the ladder
	drivers       driverSizes
}

// suiteIDs are the experiments of one sim_suite repetition: between
// them they reach every hand-written driver but the non-inclusive one,
// which the repetition calls directly.
var suiteIDs = []string{"fig12", "fig13", "fig17", "fig21", "mesh", "tab3"}

var fullSizes = sizes{
	codecLines:    131072,
	pipeLines:     131072,
	codecFrames:   1000,
	pipeFrames:    2000,
	meshTransfers: 100000,
	meshWarm:      20000,
	suite:         suiteIDs,
	// Frozen from the seed commit: core.source_bits/512 after one
	// repetition with the cell memo off. A constant, so that a later
	// change that memoises more cannot shrink the numerator of
	// source_mb_per_s.
	suiteLines:  431419,
	ladderLines: 65536,
	drivers:     fullDriverSizes,
}

var smokeSizes = sizes{
	codecLines:    2048,
	pipeLines:     2048,
	codecFrames:   16,
	pipeFrames:    16,
	meshTransfers: 3000,
	meshWarm:      500,
	suite:         []string{"fig12", "mesh", "tab3"},
	suiteLines:    431419,
	nonInclusive:  2000,
	ladderLines:   1024,
	drivers:       smokeDriverSizes,
}

const (
	chunkBytes = 64 << 10 // Write and Read size of the bulk phases
	frameBytes = 2 << 10  // one flushed frame of the round-trip phases: 32 lines, one codec batch
)

// env is what a workload is given to build itself from.
type env struct {
	seed  int
	nproc int
	sz    sizes
}

// repOut is what one repetition reports. Rates are per repetition so
// that the harness can take medians over repetitions; use sums every
// clocked phase of the repetition and excludes the checks.
type repOut struct {
	sourceMBps float64
	decodeMBps float64
	rttP50us   float64
	ratio      float64 // source bits per wire bit
	speedup    float64 // raw over CABLE link time
	srcBytes   float64 // source bytes pushed through the clocked phases
	use        usage
	digest     [sha256.Size]byte // of everything the repetition produced; must not differ between repetitions
	checks     int
	failed     int
	errs       []string
}

func (o *repOut) check(ok bool, format string, args ...any) {
	o.checks++
	if !ok {
		o.failed++
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// runner is a workload that has been set up.
type runner interface {
	// rep does one fixed unit of work and checks its outputs. Spans go
	// to tr, which is nil in the untraced run.
	rep(tr *tracer) repOut
	close()
}

// workloadDef names a workload, records why it exists, and knows how to
// set it up and which line stream the ladder replays for it.
type workloadDef struct {
	name  string
	why   string
	model string // generator model behind the workload.* rungs
	setup func(e env) (runner, error)
	// stream returns `lines` lines of the workload's own traffic.
	stream func(seed, lines int) ([]byte, error)
}

var workloads = []workloadDef{
	{
		name:   "codec_trace",
		why:    "CABLE's home turf: mcf/dealII/lbm fills, most lines find references, so DIFF coding and ranking do the work",
		model:  "mcf",
		setup:  func(e env) (runner, error) { return newCodecRunner(e, tracePayload) },
		stream: tracePayload,
	},
	{
		name:   "codec_mix",
		why:    "same layers on hostile traffic: two interleaved clients and a phase change double the per-line cost of search, ranking and DIFF coding",
		model:  "gcc",
		setup:  func(e env) (runner, error) { return newCodecRunner(e, mixPayload) },
		stream: mixPayload,
	},
	{
		name:   "pipe_tcp",
		why:    "the only blocking sink and small flushed writes: emission overlap, syscalls per frame and per-call overhead show here only",
		model:  "mcf",
		setup:  newPipeRunner,
		stream: bothPayload,
	},
	{
		name:  "mesh_soak",
		why:   "16-chip mesh under bit faults: the event queue, the parallel per-link encode pass, fault accounting and the allocator do the work",
		model: "dealII",
		setup: newMeshRunner,
		stream: func(seed, lines int) ([]byte, error) {
			return modelLines(make([]byte, 0, lines*lineSize), "dealII", seed, lines)
		},
	},
	{
		name:  "sim_suite",
		why:   "six paper experiments plus the non-inclusive driver: every hand-written simulator, the runner, the cell memo and the baseline meters",
		model: "dealII",
		setup: newSuiteRunner,
		// The experiment layer fixes its own seeds, so the ladder
		// stream of this workload ignores the seed too.
		stream: func(_, lines int) ([]byte, error) {
			return modelLines(make([]byte, 0, lines*lineSize), "dealII", 0, lines)
		},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// flitWriter passes the encoder's frames through and counts the flits
// each would occupy on the paper's 16-bit link: the simulated link time
// of the coded stream.
type flitWriter struct {
	w     io.Writer
	l     *link.Link
	flits uint64
}

func newFlitWriter() *flitWriter {
	return &flitWriter{l: link.NewIn(link.DefaultConfig(), obs.NewRegistry())}
}

func (f *flitWriter) reset(w io.Writer) { f.w, f.flits = w, 0 }

func (f *flitWriter) Write(p []byte) (int, error) {
	f.flits += uint64(f.l.Flits(8 * len(p)))
	return f.w.Write(p)
}

// speedup is the link time of `lines` raw lines over the link time of
// the frames written so far.
func (f *flitWriter) speedup(lines int) float64 {
	return float64(lines*f.l.Flits(8*lineSize)) / float64(f.flits)
}

// memConduit is an in-memory byte pipe for one goroutine that writes a
// frame and then reads it back.
type memConduit struct {
	buf   []byte
	pos   int
	total int
}

func (m *memConduit) Write(p []byte) (int, error) {
	if m.pos == len(m.buf) {
		m.buf, m.pos = m.buf[:0], 0
	}
	m.buf = append(m.buf, p...)
	m.total += len(p)
	return len(p), nil
}

func (m *memConduit) Read(p []byte) (int, error) {
	if m.pos == len(m.buf) {
		return 0, io.EOF
	}
	n := copy(p, m.buf[m.pos:])
	m.pos += n
	return n, nil
}

// writeChunks feeds payload to e in chunkBytes pieces and closes the
// stream, with a span around every call.
func writeChunks(tr *tracer, e *cable.StreamEncoder, payload []byte) error {
	for off := 0; off < len(payload); off += chunkBytes {
		end := min(off+chunkBytes, len(payload))
		id := tr.begin("codec.Encoder.Write")
		_, err := e.Write(payload[off:end])
		tr.end(id)
		if err != nil {
			return err
		}
	}
	id := tr.begin("codec.Encoder.Close")
	err := e.Close()
	tr.end(id)
	return err
}

// readAll reads exactly len(out) bytes from d, chunkBytes under one
// span at a time, and then requires end of stream.
func readAll(tr *tracer, d *cable.StreamDecoder, out []byte) error {
	for n := 0; n < len(out); {
		end := min(n+chunkBytes, len(out))
		id := tr.begin("codec.Decoder.Read")
		k, err := io.ReadFull(d, out[n:end])
		tr.end(id)
		n += k
		if err != nil {
			return fmt.Errorf("after %d of %d bytes: %w", n, len(out), err)
		}
	}
	var one [1]byte
	if k, err := d.Read(one[:]); k != 0 || !errors.Is(err, io.EOF) {
		return fmt.Errorf("after the last byte: read %d bytes, error %v, want end of stream", k, err)
	}
	return nil
}

// frameOf returns the k-th 2 KiB frame of payload, wrapping around.
func frameOf(payload []byte, k int) []byte {
	off := (k * frameBytes) % (len(payload) - frameBytes + 1)
	off -= off % lineSize
	return payload[off : off+frameBytes]
}

// codecRunner is codec_trace and codec_mix: the streaming codec into
// and out of memory on one goroutine.
type codecRunner struct {
	payload []byte
	frames  int

	wire bytes.Buffer
	rd   bytes.Reader // over wire; a field so that the clocked region allocates nothing of the harness's
	fw   *flitWriter
	enc  *cable.StreamEncoder
	dec  *cable.StreamDecoder
	out  []byte

	// The round-trip phase has a codec pair of its own.
	conduit memConduit
	rttEnc  *cable.StreamEncoder
	rttDec  *cable.StreamDecoder
	frame   []byte
	lat     []float64
}

func newCodecRunner(e env, payload func(seed, lines int) ([]byte, error)) (runner, error) {
	p, err := payload(e.seed, e.sz.codecLines)
	if err != nil {
		return nil, err
	}
	r := &codecRunner{
		payload: p,
		frames:  e.sz.codecFrames,
		fw:      newFlitWriter(),
		out:     make([]byte, len(p)),
		frame:   make([]byte, frameBytes),
		lat:     make([]float64, 0, e.sz.codecFrames),
	}
	if r.enc, err = cable.NewStreamEncoder(r.fw, cable.StreamOptions{}); err != nil {
		return nil, err
	}
	if r.rttEnc, err = cable.NewStreamEncoder(&r.conduit, cable.StreamOptions{}); err != nil {
		return nil, err
	}
	r.dec = cable.NewStreamDecoder(nil)
	r.rttDec = cable.NewStreamDecoder(nil)
	// One untimed pass grows every buffer to its steady size.
	if o := r.rep(nil); o.failed > 0 {
		return nil, fmt.Errorf("warm-up repetition: %v", o.errs)
	}
	return r, nil
}

func (r *codecRunner) close() {}

func (r *codecRunner) rep(tr *tracer) repOut {
	var o repOut
	size := float64(len(r.payload))

	// Encode: Reset, Write in 64 KiB chunks, Close, into memory.
	id := tr.begin("encode")
	s := takeSnap()
	r.wire.Reset()
	r.fw.reset(&r.wire)
	r.enc.Reset(r.fw)
	err := writeChunks(tr, r.enc, r.payload)
	enc := since(s)
	tr.end(id)
	o.check(err == nil, "encode: %v", err)
	o.sourceMBps = mbPerS(size, enc.wall)
	o.ratio = float64(r.enc.Stats.InBytes) / float64(r.enc.Stats.OutBytes)
	o.speedup = r.fw.speedup(len(r.payload) / lineSize)

	// Decode the wire bytes.
	id = tr.begin("decode")
	s = takeSnap()
	r.rd.Reset(r.wire.Bytes())
	r.dec.Reset(&r.rd)
	err = readAll(tr, r.dec, r.out)
	dec := since(s)
	tr.end(id)
	o.check(err == nil, "decode: %v", err)
	o.check(bytes.Equal(r.out, r.payload), "decoded bytes differ from the payload")
	o.decodeMBps = mbPerS(size, dec.wall)

	// Round trips: Write 2 KiB, Flush, read the 2 KiB back.
	id = tr.begin("round_trips")
	s = takeSnap()
	r.conduit = memConduit{buf: r.conduit.buf[:0]}
	r.rttEnc.Reset(&r.conduit)
	r.rttDec.Reset(&r.conduit)
	r.lat = r.lat[:0]
	bad := 0
	for k := 0; k < r.frames; k++ {
		f := frameOf(r.payload, k)
		t0 := time.Now()
		_, werr := r.rttEnc.Write(f)
		ferr := r.rttEnc.Flush()
		_, rerr := io.ReadFull(r.rttDec, r.frame)
		r.lat = append(r.lat, float64(time.Since(t0))/1e3)
		if werr != nil || ferr != nil || rerr != nil || !bytes.Equal(r.frame, f) {
			bad++
		}
	}
	rtt := since(s)
	tr.end(id)
	o.check(bad == 0, "%d of %d round-trip frames failed or came back different", bad, r.frames)
	o.rttP50us = median(r.lat)

	o.srcBytes = size + float64(r.frames*frameBytes)
	o.use = enc
	o.use.add(dec)
	o.use.add(rtt)
	h := sha256.New()
	h.Write(r.wire.Bytes())
	fmt.Fprint(h, r.conduit.total)
	h.Sum(o.digest[:0])
	return o
}

// pipeRunner is pipe_tcp: the codec over one loopback TCP connection
// at a time, the encoder on the calling goroutine and the decoder on a
// second one, with the CLI's default options (Pipeline on).
type pipeRunner struct {
	ln      net.Listener
	payload []byte
	frames  int
	opts    cable.StreamOptions

	fw  *flitWriter
	enc *cable.StreamEncoder
	dec *cable.StreamDecoder
	out []byte
	lat []float64
}

func newPipeRunner(e env) (runner, error) {
	p, err := bothPayload(e.seed, e.sz.pipeLines)
	if err != nil {
		return nil, err
	}
	r := &pipeRunner{
		payload: p,
		frames:  e.sz.pipeFrames,
		opts:    cable.StreamOptions{Pipeline: true},
		fw:      newFlitWriter(),
		out:     make([]byte, len(p)),
		lat:     make([]float64, 0, e.sz.pipeFrames),
	}
	if r.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	if r.enc, err = cable.NewStreamEncoder(io.Discard, r.opts); err != nil {
		r.close()
		return nil, err
	}
	r.dec = cable.NewStreamDecoder(nil)
	if o := r.rep(nil); o.failed > 0 {
		r.close()
		return nil, fmt.Errorf("warm-up repetition: %v", o.errs)
	}
	return r, nil
}

func (r *pipeRunner) close() { r.ln.Close() }

// connect opens the one connection: w is the encoder's end, rd the
// decoder's.
func (r *pipeRunner) connect() (w *net.TCPConn, rd net.Conn, err error) {
	c, err := net.Dial("tcp", r.ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	rd, err = r.ln.Accept()
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c.(*net.TCPConn), rd, nil
}

// bulkResult is what the decoding goroutine hands back.
type bulkResult struct {
	err error
	eof time.Time
}

// bulk sends payload through enc over a fresh connection while a second
// goroutine decodes it into out, and returns what the transfer used
// from the first Write to the decoder's end of stream. wrapW and wrapR,
// when not nil, wrap the two ends of the connection.
func (r *pipeRunner) bulk(tr *tracer, enc *cable.StreamEncoder, wrapW func(io.Writer) io.Writer, wrapR func(io.Reader) io.Reader) (usage, error) {
	cw, cr, err := r.connect()
	if err != nil {
		return usage{}, err
	}
	defer cw.Close()
	defer cr.Close()
	var sink io.Writer = cw
	var src io.Reader = cr
	if wrapW != nil {
		sink = wrapW(sink)
	}
	if wrapR != nil {
		src = wrapR(src)
	}
	done := make(chan bulkResult, 1)
	go func() {
		r.dec.Reset(src)
		// The decoder's spans are not recorded: a tracer has one
		// driving goroutine.
		err := readAll(nil, r.dec, r.out)
		done <- bulkResult{err, time.Now()}
	}()
	s := takeSnap()
	r.fw.reset(sink)
	enc.Reset(r.fw)
	werr := writeChunks(tr, enc, r.payload)
	if werr == nil {
		werr = cw.CloseWrite()
	} else {
		cw.Close() // unblock the decoder
	}
	res := <-done
	u := since(s)
	u.wall = res.eof.Sub(s.t)
	tr.add("codec.Decoder.Read(all)", s.t, res.eof, -1)
	return u, errors.Join(werr, res.err)
}

// roundTrips runs the closed loop of one client: Write 2 KiB, Flush,
// wait until the decoder on the other end of the connection has yielded
// those 2 KiB. It appends the latencies in µs to lat.
func (r *pipeRunner) roundTrips(enc *cable.StreamEncoder, frames int, lat []float64) ([]float64, usage, error) {
	cw, cr, err := r.connect()
	if err != nil {
		return lat, usage{}, err
	}
	defer cw.Close()
	defer cr.Close()
	got := make(chan error)
	done := make(chan error, 1)
	go func() {
		r.dec.Reset(cr)
		buf := make([]byte, frameBytes)
		for k := 0; k < frames; k++ {
			_, err := io.ReadFull(r.dec, buf)
			if err == nil && !bytes.Equal(buf, frameOf(r.payload, k)) {
				err = fmt.Errorf("frame %d came back different", k)
			}
			got <- err
			if err != nil {
				return
			}
		}
		var one [1]byte
		if k, err := r.dec.Read(one[:]); k != 0 || !errors.Is(err, io.EOF) {
			done <- fmt.Errorf("after the last frame: read %d bytes, error %v, want end of stream", k, err)
			return
		}
		done <- nil
	}()
	s := takeSnap()
	enc.Reset(cw)
	for k := 0; k < frames; k++ {
		f := frameOf(r.payload, k)
		t0 := time.Now()
		_, werr := enc.Write(f)
		ferr := enc.Flush()
		if err := errors.Join(werr, ferr); err != nil {
			cw.Close() // the decoder sees a broken stream and stops
			<-got
			return lat, since(s), err
		}
		if err := <-got; err != nil {
			return lat, since(s), err
		}
		lat = append(lat, float64(time.Since(t0))/1e3)
	}
	u := since(s)
	if err := errors.Join(enc.Close(), cw.CloseWrite()); err != nil {
		cw.Close()
		<-done
		return lat, u, err
	}
	return lat, u, <-done
}

func (r *pipeRunner) rep(tr *tracer) repOut {
	var o repOut
	size := float64(len(r.payload))

	id := tr.begin("bulk")
	bulk, err := r.bulk(tr, r.enc, nil, nil)
	tr.end(id)
	o.check(err == nil, "bulk transfer: %v", err)
	o.check(bytes.Equal(r.out, r.payload), "decoded bytes differ from the payload")
	o.sourceMBps = mbPerS(size, bulk.wall)
	// The two ends overlap on one clock, so the decoding side delivers
	// at the rate the encoding side accepts.
	o.decodeMBps = o.sourceMBps
	st := r.enc.Stats
	o.ratio = float64(st.InBytes) / float64(st.OutBytes)
	o.speedup = r.fw.speedup(len(r.payload) / lineSize)

	id = tr.begin("round_trips")
	var rtt usage
	r.lat, rtt, err = r.roundTrips(r.enc, r.frames, r.lat[:0])
	tr.end(id)
	o.check(err == nil, "round trips: %v", err)
	o.rttP50us = median(r.lat)

	o.srcBytes = size + float64(r.frames*frameBytes)
	o.use = bulk
	o.use.add(rtt)
	h := sha256.New()
	fmt.Fprint(h, st, r.enc.Stats)
	h.Sum(o.digest[:0])
	return o
}

// meshRunner is mesh_soak: the topology engine under bit faults.
type meshRunner struct {
	cfg cable.TopologyConfig
}

func meshConfig(e env, transfers, parallelism int) cable.TopologyConfig {
	cfg := cable.DefaultTopologyConfig("dealII")
	cfg.Transfers = transfers
	cfg.Seed = uint64(e.seed)
	cfg.Fault = cable.FaultConfig{BitRate: 1e-3, Seed: uint64(e.seed)}
	cfg.Verify = true
	cfg.Parallelism = parallelism
	return cfg
}

func newMeshRunner(e env) (runner, error) {
	// A short run fills the pools the engine recycles chip state from.
	if _, err := cable.RunTopology(meshConfig(e, e.sz.meshWarm, e.nproc)); err != nil {
		return nil, err
	}
	return &meshRunner{cfg: meshConfig(e, e.sz.meshTransfers, e.nproc)}, nil
}

func (r *meshRunner) close() {}

func (r *meshRunner) rep(tr *tracer) repOut {
	var o repOut
	id := tr.begin("topo.Run")
	s := takeSnap()
	res, err := cable.RunTopology(r.cfg)
	o.use = since(s)
	tr.end(id)
	o.check(err == nil, "RunTopology: %v", err)
	if err != nil {
		return o
	}
	o.check(res.DecodeErrors <= res.FaultsInjected, "%d decode errors from %d injected faults", res.DecodeErrors, res.FaultsInjected)
	o.srcBytes = float64(res.LinkTransfers) * lineSize
	o.sourceMBps = mbPerS(o.srcBytes, o.use.wall)
	// Verify decodes every transfer inside the same call.
	o.decodeMBps = o.sourceMBps
	o.rttP50us = float64(o.use.wall) / 1e3 / float64(res.LinkTransfers)
	o.ratio = res.Ratio()
	o.speedup = res.Speedup()
	o.digest = sha256.Sum256([]byte(fmt.Sprintf("%+v", *res)))
	return o
}

// suiteRunner is sim_suite: the experiment layer end to end.
type suiteRunner struct {
	ids   []string
	opt   cable.ExperimentOptions
	ni    cable.NonInclusiveConfig
	lines float64
}

func newSuiteRunner(e env) (runner, error) {
	r := &suiteRunner{
		ids:   e.sz.suite,
		opt:   cable.ExperimentOptions{Quick: true, Parallelism: e.nproc},
		ni:    cable.DefaultNonInclusiveConfig("dealII"),
		lines: e.sz.suiteLines,
	}
	if e.sz.nonInclusive > 0 {
		r.ni.Accesses = e.sz.nonInclusive
	}
	// A repetition is too long to run one untimed; the cheapest
	// experiment and a short driver run finish the lazy set-up
	// (registries, pools) instead.
	warm := r.ni
	warm.Accesses = 2000
	if _, err := cable.RunNonInclusive(warm); err != nil {
		return nil, err
	}
	if _, err := cable.RunExperiment("tab3", r.opt); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *suiteRunner) close() {}

// tablesDigest hashes the rendered tables and notes of a suite run.
func tablesDigest(results []*cable.ExperimentResult) [sha256.Size]byte {
	h := sha256.New()
	for _, res := range results {
		fmt.Fprintln(h, res.ID, res.Table.String(), res.Notes)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func (r *suiteRunner) rep(tr *tracer) repOut {
	var o repOut
	experiments.ResetCellMemo()
	cable.ResetMetrics()

	id := tr.begin("suite")
	s := takeSnap()
	sp := tr.begin("experiments.RunAll")
	results, err := cable.RunExperiments(r.ids, r.opt)
	tr.end(sp)
	sp = tr.begin("sim.RunNonInclusive")
	ni, nerr := cable.RunNonInclusive(r.ni)
	tr.end(sp)
	o.use = since(s)
	tr.end(id)
	o.check(err == nil, "RunExperiments: %v", err)
	o.check(nerr == nil, "RunNonInclusive: %v", nerr)
	if err != nil || nerr != nil {
		return o
	}
	o.srcBytes = r.lines * lineSize
	o.sourceMBps = mbPerS(o.srcBytes, o.use.wall)
	// The simulators decode and verify every transfer they encode.
	o.decodeMBps = o.sourceMBps
	o.rttP50us = float64(o.use.wall) / 1e3 / r.lines
	for _, res := range results {
		switch res.ID {
		case "fig12":
			o.ratio = res.Table.Get("mean", "cable")
		case "mesh":
			o.speedup = res.Table.Get("mean", "speedup")
		}
	}
	h := sha256.New()
	d := tablesDigest(results)
	h.Write(d[:])
	fmt.Fprintf(h, "%+v", *ni)
	h.Sum(o.digest[:0])
	return o
}
