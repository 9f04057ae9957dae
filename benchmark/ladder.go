package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"runtime/debug"
	"strconv"
	"time"

	"cable"
	"cable/internal/bits"
	"cable/internal/cache"
	"cable/internal/compress"
	"cable/internal/core"
	"cable/internal/link"
	"cable/internal/obs"
	"cable/internal/sig"
	"cable/internal/workload"
)

// probe measures the rungs of the ladder for one traced run. Every
// rung drives one layer through its public functions, with a span
// around every timed pass. Rungs that replay lines use `stream`, the
// workload's own traffic; rungs that are whole-driver calls with fixed
// configurations do not depend on it.
type probe struct {
	e      env
	def    workloadDef
	tr     *tracer
	res    *runResult
	stream []byte
	root   string // of the checkout
}

const probePasses = 3 // timed passes per rung; the rung reports their median

var (
	standaloneEngines = []string{"lbe", "bdi", "fpc", "cpack"}
	encodeBatches     = []int{1, 8, 32, 128}
)

func (p *probe) set(name string, v float64) { p.res.values[name] = total(v) }

// check counts one correctness check of the ladder.
func (p *probe) check(ok bool, format string, args ...any) {
	p.res.attempted++
	if !ok {
		p.res.failed++
		p.res.errs = append(p.res.errs, fmt.Sprintf(format, args...))
	}
}

// timed runs pass probePasses times under spans called name and returns
// the median duration of a pass divided by n, in ns.
func (p *probe) timed(name string, n int, pass func()) float64 {
	ds := make([]float64, probePasses)
	for i := range ds {
		id := p.tr.begin(name)
		t0 := time.Now()
		pass()
		ds[i] = float64(time.Since(t0))
		p.tr.end(id)
	}
	return median(ds) / float64(n)
}

// group runs one group of rungs and turns a panic into a failed check,
// so that one broken layer does not hide the others.
func (p *probe) group(name string, fn func()) {
	id := p.tr.begin(name)
	defer p.tr.end(id)
	defer func() {
		if r := recover(); r != nil {
			p.check(false, "%s: panic: %v\n%s", name, r, debug.Stack())
			p.tr.unwindTo(id)
		}
	}()
	fn()
}

// all measures every rung.
func (p *probe) all() {
	p.group("ladder.bits", p.bits)
	p.group("ladder.sig", p.sig)
	var plan *ladderPlan
	p.group("ladder.plan", func() { plan = p.plan() })
	if plan == nil {
		return // the encoder itself is broken; the failed check says how
	}
	p.group("ladder.compress", func() { p.compress(plan) })
	p.group("ladder.cache", p.cache)
	p.group("ladder.core", func() { p.core(plan) })
	p.group("ladder.codec", func() { p.codec(plan) })
	p.group("ladder.ref", p.ref)
	p.group("ladder.link", func() { p.link(plan) })
	p.group("ladder.workload", p.workload)
	p.group("ladder.cablepipe", p.cablepipe)
	p.group("ladder.topo", p.topo)
	p.group("ladder.sim", p.sim)
	p.group("ladder.experiments", p.experiments)
	p.group("ladder.obs", p.obs)
}

func (p *probe) lines() int { return len(p.stream) / lineSize }

func (p *probe) line(s int) []byte { return p.stream[s*lineSize : (s+1)*lineSize] }

func (p *probe) bits() {
	const ops, width, flush = 1 << 22, 13, 1 << 12
	var w bits.Writer
	p.set("bits.write_ns_per_op", p.timed("bits.Writer.WriteBits", ops, func() {
		for i := 0; i < ops; i++ {
			if i%flush == 0 {
				w.Reset()
			}
			w.WriteBits(uint64(i), width)
		}
	}))
	buf, nbits := w.Bytes(), w.Len()
	var r bits.Reader
	var acc uint64
	p.set("bits.read_ns_per_op", p.timed("bits.Reader.ReadBits", ops, func() {
		for i := 0; i < ops; i++ {
			if i%flush == 0 {
				r.Reset(buf, nbits)
			}
			v, _ := r.ReadBits(width)
			acc += v
		}
	}))
	p.check(r.Err() == nil && acc != 0, "bits: reading back %d-bit fields: %v", width, r.Err())
}

func (p *probe) sig() {
	cfg := core.DefaultConfig()
	ex := sig.NewExtractorN(lineSize, cfg.SigSeed, cfg.InsertSigs)
	n := p.lines()
	var sigs []sig.Signature
	p.set("sig.search_ns_per_line", p.timed("sig.AppendSearchSignatures", n, func() {
		for s := 0; s < n; s++ {
			sigs = ex.AppendSearchSignatures(sigs[:0], p.line(s), cfg.MaxSearchSigs)
		}
	}))
	p.set("sig.insert_ns_per_line", p.timed("sig.AppendInsertSignatures", n, func() {
		for s := 0; s < n; s++ {
			sigs = ex.AppendInsertSignatures(sigs[:0], p.line(s))
		}
	}))
	words := 0
	for s := 0; s < n; s++ {
		words += sig.NonTrivialWords(p.line(s))
	}
	p.set("sig.nontrivial_word_share", float64(words)/float64(n*lineSize/sig.WordSize))
}

// dictLink is a CABLE link over one dictionary cache driven the way the
// streaming codec drives it: line s is installed at a round-robin slot
// and then encoded against whatever the dictionary still holds.
type dictLink struct {
	dict       *cache.Cache
	he         *core.HomeEnd
	sets, ways uint64
}

func dictConfig() cache.Config {
	return cache.Config{Name: "bench-dict", SizeBytes: 1 << 20, Ways: 8, LineSize: lineSize}
}

func linkConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.WritebackCompression = false
	return cfg
}

func newDictLink() *dictLink {
	dict := cache.New(dictConfig())
	he, err := core.NewHomeEnd(linkConfig(), dict, dict)
	if err != nil {
		panic(err) // the default configuration is valid
	}
	return &dictLink{dict: dict, he: he, sets: uint64(dict.NumSets()), ways: uint64(dictConfig().Ways)}
}

func (d *dictLink) reset() {
	d.dict.Reset()
	d.he.Reset()
}

func (d *dictLink) slot(s uint64) cache.LineID {
	return cache.LineID{Index: int(s & (d.sets - 1)), Way: int((s / d.sets) % d.ways)}
}

func (d *dictLink) install(s uint64, data []byte) {
	slot := d.slot(s)
	if victim, ok := d.dict.LineAddrOf(slot); ok {
		d.he.OnHomeEviction(victim)
	}
	d.dict.OverwriteAt(s, data, cache.Shared, slot.Way)
}

// planned is what the encoder decided for one line of the stream.
type planned struct {
	payload core.Payload     // owns its buffers
	refs    [][]byte         // the reference lines it chose, as slices of the stream
	image   compress.Encoded // the guarded wire image
}

// ladderPlan is one untimed pass of the per-line encoder over the
// stream, kept so that the layers below can be replayed on the
// encoder's own choices.
type ladderPlan struct {
	lines            []planned
	stats            core.HomeStats
	idxBits, wayBits int
}

func (p *probe) plan() *ladderPlan {
	d := newDictLink()
	n := p.lines()
	pl := &ladderPlan{lines: make([]planned, n), idxBits: d.dict.IndexBits(), wayBits: d.dict.WayBits()}
	for s := 0; s < n; s++ {
		d.install(uint64(s), p.line(s))
		pay, _, err := d.he.EncodeFill(uint64(s), cache.Shared, d.slot(uint64(s)).Way)
		if err != nil {
			panic(err) // the line was installed just above
		}
		e := &pl.lines[s]
		e.payload = pay.Clone()
		for _, ref := range pay.Refs {
			// Home and remote are one cache here, so a RemoteLID names a
			// dictionary slot, whose address is a line number.
			if at, ok := d.dict.LineAddrOf(ref); ok {
				e.refs = append(e.refs, p.line(int(at)))
			}
		}
		img := pay.MarshalGuarded(pl.idxBits, pl.wayBits)
		e.image = compress.Encoded{Data: append([]byte(nil), img.Data...), NBits: img.NBits}
	}
	pl.stats = d.he.Stats
	return pl
}

func (p *probe) compress(pl *ladderPlan) {
	n := p.lines()
	srcBits := float64(n * lineSize * 8)
	for _, name := range standaloneEngines {
		eng, err := compress.NewEngine(name)
		if err != nil {
			panic(err)
		}
		var scr compress.Scratch
		var nbits int
		p.set("compress."+name+"_ns_per_line", p.timed("compress."+name+".Compress", n, func() {
			nbits = 0
			for s := 0; s < n; s++ {
				nbits += compress.CompressWith(eng, &scr, p.line(s), nil).NBits
			}
		}))
		p.set("compress."+name+"_ratio", srcBits/float64(nbits))
	}

	z := compress.NewLZSS("lzss", 32<<10)
	var zbits int
	p.set("compress.lzss_ns_per_line", p.timed("compress.LZSS.Compress", n, func() {
		z.Reset()
		zbits = 0
		for s := 0; s < n; s++ {
			zbits += z.Compress(p.line(s)).NBits
		}
	}))
	p.set("ref.lzss_ratio", srcBits/float64(zbits))

	// The engine the codec delegates to, on the references the encoder
	// chose. Only lines that were coded against references run; the
	// time is spread over all lines so that it adds up with the other
	// rungs.
	eng, err := compress.NewEngine(linkConfig().EngineName)
	if err != nil {
		panic(err)
	}
	var scr compress.Scratch
	p.set("compress.diff_ns_per_line", p.timed("compress.diff", n, func() {
		for s := 0; s < n; s++ {
			if e := &pl.lines[s]; len(e.refs) > 0 {
				compress.CompressWith(eng, &scr, p.line(s), e.refs)
			}
		}
	}))
	var dscr compress.DecScratch
	bad := 0
	p.set("compress.undiff_ns_per_line", p.timed("compress.undiff", n, func() {
		bad = 0
		for s := 0; s < n; s++ {
			e := &pl.lines[s]
			if len(e.refs) == 0 || !e.payload.Compressed {
				continue
			}
			out, err := compress.DecompressWith(eng, &dscr, e.payload.Diff, e.refs, lineSize)
			if err != nil || !bytes.Equal(out, p.line(s)) {
				bad++
			}
		}
	}))
	p.check(bad == 0, "compress: %d DIFFs did not expand to their line", bad)

	oracle := compress.NewOracle()
	obits := 0
	for s := 0; s < n; s++ {
		obits += oracle.Compress(p.line(s), pl.lines[s].refs).NBits
	}
	p.set("compress.oracle_ratio", srcBits/float64(obits))
}

func (p *probe) cache() {
	n := p.lines()
	d := newDictLink()
	p.set("cache.insert_at_ns", p.timed("cache.InsertAt", n, func() {
		d.dict.Reset()
		for s := 0; s < n; s++ {
			d.dict.InsertAt(uint64(s), p.line(s), cache.Shared, d.slot(uint64(s)).Way)
		}
	}))
	// The dictionary now holds the last lines of the stream.
	resident := min(n, d.dict.NumLines())
	first := n - resident
	hits := 0
	p.set("cache.probe_ns", p.timed("cache.Probe", resident, func() {
		hits = 0
		for s := first; s < n; s++ {
			if _, _, ok := d.dict.Probe(uint64(s)); ok {
				hits++
			}
		}
	}))
	p.check(hits == resident, "cache: %d of %d resident lines probed", hits, resident)
	p.set("cache.read_by_id_ns", p.timed("cache.ReadByID", resident, func() {
		hits = 0
		for s := first; s < n; s++ {
			if d.dict.ReadByID(d.slot(uint64(s))) != nil {
				hits++
			}
		}
	}))
	p.check(hits == resident, "cache: %d of %d resident slots read", hits, resident)
}

func (p *probe) core(pl *ladderPlan) {
	n := p.lines()
	cfg := linkConfig()
	st := pl.stats
	fills := float64(st.Fills)
	refs := 0.0
	for k, c := range st.RefsUsed {
		refs += float64(k) * float64(c)
	}
	p.set("core.search_hit_share", float64(st.DiffWins)/float64(st.Fills-st.ThresholdSkips))
	p.set("core.refs_per_line", refs/fills)
	p.set("core.class_raw_share", float64(st.RawWins)/fills)
	p.set("core.class_standalone_share", float64(st.StandaloneWins)/fills)
	p.set("core.class_diff_share", float64(st.DiffWins)/fills)
	p.set("core.payload_bits_per_line", float64(st.PayloadBits)/fills)
	p.check(st.RawWins+st.StandaloneWins+st.DiffWins == st.Fills, "core: classes %d+%d+%d do not add up to %d fills", st.RawWins, st.StandaloneWins, st.DiffWins, st.Fills)

	// Tables as the encoder leaves them after the stream.
	d := newDictLink()
	for s := 0; s < n; s++ {
		d.install(uint64(s), p.line(s))
		if _, _, err := d.he.EncodeFill(uint64(s), cache.Shared, d.slot(uint64(s)).Way); err != nil {
			panic(err)
		}
	}
	ex := sig.NewExtractorN(lineSize, cfg.SigSeed, cfg.InsertSigs)
	search := make([]sig.Signature, n) // first search signature of each line
	var tmp []sig.Signature
	for s := 0; s < n; s++ {
		if tmp = ex.AppendSearchSignatures(tmp[:0], p.line(s), 1); len(tmp) > 0 {
			search[s] = tmp[0]
		}
	}
	ht := d.he.HashTable()
	var ids []cache.LineID
	p.set("core.ht_lookup_ns", p.timed("core.HashTable.Lookup", n, func() {
		for s := 0; s < n; s++ {
			ids = ht.Lookup(search[s], ids[:0])
		}
	}))
	fresh := core.NewHashTable(ht.NumBuckets(), ht.Depth())
	p.set("core.ht_insert_ns", p.timed("core.HashTable.Insert", n, func() {
		fresh.Reset()
		for s := 0; s < n; s++ {
			fresh.Insert(search[s], d.slot(uint64(s)))
		}
	}))
	wmt := d.he.WMT()
	p.set("core.wmt_lookup_ns", p.timed("core.WMT.Lookup", n, func() {
		for s := 0; s < n; s++ {
			wmt.Lookup(d.slot(uint64(s)))
		}
	}))

	var mallocs uint64
	p.set("core.encode_fill_ns_per_line", p.timed("core.EncodeFill", n, func() {
		d.reset()
		s0 := takeSnap()
		for s := 0; s < n; s++ {
			d.install(uint64(s), p.line(s))
			d.he.EncodeFill(uint64(s), cache.Shared, d.slot(uint64(s)).Way)
		}
		mallocs = since(s0).mallocs
	}))
	p.set("core.encode_allocs_per_kline", float64(mallocs)/(float64(n)/1000))
	p.check(d.he.Stats == st, "core: a second per-line pass decided differently: %+v, want %+v", d.he.Stats, st)

	reqs := make([]core.BatchFill, 0, encodeBatches[len(encodeBatches)-1])
	for _, b := range encodeBatches {
		var base uint64
		var count int
		emit := func(i int, _ core.Payload, _ core.FillLatency) {
			// The point where the batch path promises sequential
			// equivalence: install line i+1 before it is probed.
			if i+1 < count {
				next := base + uint64(i+1)
				d.install(next, p.line(int(next)))
			}
		}
		p.set("core.encode_fills_b"+strconv.Itoa(b)+"_ns_per_line", p.timed("core.EncodeFills/"+strconv.Itoa(b), n, func() {
			d.reset()
			for s := 0; s < n; s += b {
				base, count = uint64(s), min(b, n-s)
				reqs = reqs[:0]
				for i := 0; i < count; i++ {
					at := base + uint64(i)
					reqs = append(reqs, core.BatchFill{LineAddr: at, State: cache.Shared, ReplWay: d.slot(at).Way})
				}
				d.install(base, p.line(s))
				if err := d.he.EncodeFills(reqs, emit); err != nil {
					panic(err)
				}
			}
		}))
		p.check(d.he.Stats == st, "core: EncodeFills at batch %d decided differently from the per-line path: %+v, want %+v", b, d.he.Stats, st)
	}

	// The decoding side has a dictionary of its own, kept in step by
	// installing what it decodes.
	rdict := cache.New(dictConfig())
	re, err := core.NewRemoteEnd(cfg, rdict)
	if err != nil {
		panic(err)
	}
	bad := 0
	p.set("core.decode_fill_ns_per_line", p.timed("core.DecodeFill", n, func() {
		rdict.Reset()
		re.Reset()
		bad = 0
		for s := 0; s < n; s++ {
			data, err := re.DecodeFill(pl.lines[s].payload)
			if err != nil || !bytes.Equal(data, p.line(s)) {
				bad++
				data = p.line(s) // keep the dictionaries in step
			}
			rdict.OverwriteAt(uint64(s), data, cache.Shared, d.slot(uint64(s)).Way)
		}
	}))
	p.check(bad == 0, "core: %d payloads did not decode to their line", bad)

	var mw bits.Writer
	p.set("core.marshal_ns_per_line", p.timed("core.MarshalGuardedInto", n, func() {
		for s := 0; s < n; s++ {
			pl.lines[s].payload.MarshalGuardedInto(&mw, pl.idxBits, pl.wayBits)
		}
	}))
	var out core.Payload
	var pscr core.PayloadScratch
	bad = 0
	p.set("core.unmarshal_ns_per_line", p.timed("core.UnmarshalPayloadGuardedScratch", n, func() {
		bad = 0
		for s := 0; s < n; s++ {
			if err := core.UnmarshalPayloadGuardedScratch(&out, &pscr, pl.lines[s].image, pl.idxBits, pl.wayBits, lineSize); err != nil {
				bad++
			}
		}
	}))
	p.check(bad == 0, "core: %d wire images did not parse", bad)

	v := p.res.values
	p.set("core.self_ns_per_line", v["core.encode_fill_ns_per_line"].value-
		v["sig.search_ns_per_line"].value-v["sig.insert_ns_per_line"].value-
		v["compress.lbe_ns_per_line"].value-v["compress.diff_ns_per_line"].value)
}

func (p *probe) codec(pl *ladderPlan) {
	n := p.lines()
	mb := float64(len(p.stream)) / 1e6
	var wire bytes.Buffer
	enc, err := cable.NewStreamEncoder(&wire, cable.StreamOptions{})
	if err != nil {
		panic(err)
	}
	var encAllocs uint64
	p.set("codec.encode_ns_per_line", p.timed("codec.Encoder", n, func() {
		wire.Reset()
		enc.Reset(&wire)
		s0 := takeSnap()
		if err := writeChunks(nil, enc, p.stream); err != nil {
			panic(err)
		}
		encAllocs = since(s0).mallocs
	}))
	st := enc.Stats
	frames := float64(st.CableFrames + st.RawFrames)
	p.set("codec.cable_frame_share", float64(st.CableFrames)/frames)
	p.set("codec.raw_frame_share", float64(st.RawFrames)/frames)
	p.set("codec.framing_overhead_share", 1-float64(pl.stats.PayloadBits)/float64(st.OutBytes*8))
	p.set("codec.encode_allocs_per_mb", float64(encAllocs)/mb)

	dec := cable.NewStreamDecoder(nil)
	out := make([]byte, len(p.stream))
	var decAllocs uint64
	p.set("codec.decode_ns_per_line", p.timed("codec.Decoder", n, func() {
		dec.Reset(bytes.NewReader(wire.Bytes()))
		s0 := takeSnap()
		if err := readAll(nil, dec, out); err != nil {
			panic(err)
		}
		decAllocs = since(s0).mallocs
	}))
	p.check(bytes.Equal(out, p.stream), "codec: decoded stream differs")
	p.set("codec.decode_allocs_per_mb", float64(decAllocs)/mb)

	v := p.res.values
	p.set("codec.self_ns_per_line", v["codec.encode_ns_per_line"].value-
		v["core.encode_fills_b32_ns_per_line"].value-v["core.marshal_ns_per_line"].value)
}

// countingDiscard is io.Discard with a length.
type countingDiscard int

func (c *countingDiscard) Write(b []byte) (int, error) {
	*c += countingDiscard(len(b))
	return len(b), nil
}

func (p *probe) ref() {
	var n countingDiscard
	zw := gzip.NewWriter(&n)
	nsPerByte := p.timed("compress/gzip", len(p.stream), func() {
		n = 0
		zw.Reset(&n)
		if _, err := zw.Write(p.stream); err != nil {
			panic(err)
		}
		if err := zw.Close(); err != nil {
			panic(err)
		}
	})
	p.set("ref.gzip_mb_per_s", 1e3/nsPerByte)
	p.set("ref.gzip_ratio", float64(len(p.stream))/float64(n))
}

func (p *probe) link(pl *ladderPlan) {
	l := link.NewIn(link.DefaultConfig(), obs.NewRegistry())
	n := p.lines()
	p.set("link.send_wire_ns_per_line", p.timed("link.SendWire", n, func() {
		for s := 0; s < n; s++ {
			img := pl.lines[s].image
			l.SendWire(img.Data, img.NBits)
		}
	}))
}

func (p *probe) workload() {
	n := p.lines()
	reg := obs.NewRegistry()
	g, err := workload.NewIn(p.def.model, p.e.seed, 0, reg)
	if err != nil {
		panic(err)
	}
	addrs := make([]uint64, n)
	p.set("workload.next_ns", p.timed("workload.Generator.Next", n, func() {
		for i := range addrs {
			addrs[i] = g.Next().LineAddr
		}
	}))
	p.set("workload.line_data_ns", p.timed("workload.Generator.LineData", n, func() {
		for _, a := range addrs {
			g.LineData(a)
		}
	}))
	c := reg.Snapshot(false).Counters
	hits, misses := c["workload.linecache_hits"], c["workload.linecache_misses"]
	p.set("workload.linecache_hit_share", float64(hits)/float64(hits+misses))

	m, err := newMix(p.e.seed, n*probePasses)
	if err != nil {
		panic(err)
	}
	p.set("workload.mix_next_ns", p.timed("spec.Mix.Next", n, func() {
		for i := 0; i < n; i++ {
			if _, err := m.Next(); err != nil {
				panic(err)
			}
		}
	}))
}
