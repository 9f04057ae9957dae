package main

import (
	"regexp"
	"strconv"
)

// metricDef describes one metric the harness prints. Clock says which
// time a number is made of: "host" is time the program took on this
// machine, "sim" is time the modelled hardware would take, and "count"
// is a count or a ratio of counts, which repeats exactly for a seed.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Clock  string
	Doc    string
}

// nameRE is the shape of metric and workload names the driver accepts.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runSeconds is how long one run keeps repeating its workload.
const runSeconds = 10

// endToEnd lists what a user of the system sees. Every workload prints
// every one of them; the README's table says what each means on each
// workload. Failed checks are not a metric here, because a metric of
// the contract may never be 0: they are the "failed" and "attempted"
// keys of the result line.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "host", "building the workload's inputs, outside the timed region (median of three set-ups)"},
	{"source_mb_per_s", "MB/s", "higher", 0.25, "host", "source bytes through the top-level call per second (best repetition)"},
	{"decode_mb_per_s", "MB/s", "higher", 0.25, "host", "source bytes out of the decoding side per second (best repetition)"},
	{"frame_rtt_p50_us", "us", "lower", 0.25, "host", "median latency of the workload's smallest closed-loop unit (best repetition)"},
	{"compression_ratio", "x", "higher", 0.03, "count", "source bits per wire bit"},
	{"sim_speedup", "x", "higher", 0.03, "sim", "raw over CABLE link time"},
	{"allocs_per_kline", "1/kline", "lower", 0.05, "count", "heap allocations per 1000 source lines over the timed region"},
	{"alloc_bytes_per_line", "B/line", "lower", 0.05, "count", "heap bytes allocated per source line over the timed region"},
	{"peak_rss_mb", "MiB", "lower", 0.25, "host", "peak resident set of the workload's own process"},
	{"cpu_s_per_gb", "s/GB", "lower", 0.25, "host", "user+system CPU seconds per source GB (best repetition)"},
}

// defOf returns the metric called name from defs.
func defOf(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.Name == name {
			return d
		}
	}
	panic("no metric called " + name) // a misspelt name in the harness
}

// perLayer lists the rungs of the ladder, outside in. A traced run
// prints every one of them.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better, clock, doc string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better, Clock: clock, Doc: doc})
	}
	for _, g := range profGroups {
		add("prof."+g+"_cpu_share", "share", "lower", "host", "share of the timed region's CPU samples whose leaf function is in "+g)
	}

	add("bits.write_ns_per_op", "ns/op", "lower", "host", "bits.Writer.WriteBits, 13-bit fields")
	add("bits.read_ns_per_op", "ns/op", "lower", "host", "bits.Reader.ReadBits, 13-bit fields")

	add("sig.search_ns_per_line", "ns/line", "lower", "host", "Extractor.AppendSearchSignatures (16 signatures)")
	add("sig.insert_ns_per_line", "ns/line", "lower", "host", "Extractor.AppendInsertSignatures")
	add("sig.nontrivial_word_share", "share", "higher", "count", "32-bit words of the stream that can carry a signature")

	for _, e := range standaloneEngines {
		add("compress."+e+"_ns_per_line", "ns/line", "lower", "host", e+" compressing each line alone")
	}
	add("compress.lzss_ns_per_line", "ns/line", "lower", "host", "streaming LZSS (32 KiB window), the baseline meters' gzip stand-in")
	add("compress.diff_ns_per_line", "ns/line", "lower", "host", "the codec's engine compressing each line against the references the encoder chose")
	add("compress.undiff_ns_per_line", "ns/line", "lower", "host", "the inverse of compress.diff on the same references")
	for _, e := range standaloneEngines {
		add("compress."+e+"_ratio", "x", "higher", "count", e+" alone: source bits per compressed bit")
	}
	add("compress.oracle_ratio", "x", "higher", "count", "oracle engine on the encoder's references: upper bound for reference-seeded coding")

	add("cache.probe_ns", "ns/op", "lower", "host", "Cache.Probe of a resident line")
	add("cache.insert_at_ns", "ns/op", "lower", "host", "Cache.InsertAt at the codec's round-robin slot")
	add("cache.read_by_id_ns", "ns/op", "lower", "host", "Cache.ReadByID of a resident slot")

	add("core.ht_lookup_ns", "ns/op", "lower", "host", "HashTable.Lookup of one search signature")
	add("core.ht_insert_ns", "ns/op", "lower", "host", "HashTable.Insert of one insert signature")
	add("core.wmt_lookup_ns", "ns/op", "lower", "host", "WMT.Lookup of a home slot")
	add("core.encode_fill_ns_per_line", "ns/line", "lower", "host", "HomeEnd.EncodeFill, the per-line path the simulators use")
	for _, b := range encodeBatches {
		add("core.encode_fills_b"+strconv.Itoa(b)+"_ns_per_line", "ns/line", "lower", "host", "HomeEnd.EncodeFills at batch "+strconv.Itoa(b))
	}
	add("core.decode_fill_ns_per_line", "ns/line", "lower", "host", "RemoteEnd.DecodeFill of the encoder's payloads")
	add("core.marshal_ns_per_line", "ns/line", "lower", "host", "Payload.MarshalGuardedInto")
	add("core.unmarshal_ns_per_line", "ns/line", "lower", "host", "UnmarshalPayloadGuardedScratch")
	add("core.search_hit_share", "share", "higher", "count", "lines coded against at least one reference, of lines searched")
	add("core.refs_per_line", "1/line", "higher", "count", "references used per line")
	add("core.class_raw_share", "share", "lower", "count", "lines sent uncompressed")
	add("core.class_standalone_share", "share", "higher", "count", "lines compressed without a reference")
	add("core.class_diff_share", "share", "higher", "count", "lines compressed against references")
	add("core.payload_bits_per_line", "bit/line", "lower", "count", "payload bits per 512-bit line")
	add("core.encode_allocs_per_kline", "1/kline", "lower", "count", "heap allocations per 1000 EncodeFill calls")
	add("core.self_ns_per_line", "ns/line", "lower", "host", "encode_fill minus the sig, cache, compress and marshal rungs replayed alone")

	add("codec.encode_ns_per_line", "ns/line", "lower", "host", "StreamEncoder Write..Close into memory")
	add("codec.decode_ns_per_line", "ns/line", "lower", "host", "StreamDecoder over the wire bytes")
	add("codec.self_ns_per_line", "ns/line", "lower", "host", "codec.encode minus core.encode_fills_b32 and core.marshal")
	add("codec.cable_frame_share", "share", "higher", "count", "frames carrying CABLE payloads")
	add("codec.raw_frame_share", "share", "lower", "count", "frames that fell back to raw lines")
	add("codec.framing_overhead_share", "share", "lower", "count", "wire bytes that are not payload bits (headers, length fields, guards, padding)")
	add("codec.encode_allocs_per_mb", "1/MB", "lower", "count", "heap allocations per source MB encoded")
	add("codec.decode_allocs_per_mb", "1/MB", "lower", "count", "heap allocations per source MB decoded")

	add("ref.gzip_mb_per_s", "MB/s", "higher", "host", "compress/gzip at its default level on the same stream")
	add("ref.gzip_ratio", "x", "higher", "count", "compress/gzip: source bytes per compressed byte")
	add("ref.lzss_ratio", "x", "higher", "count", "streaming LZSS: source bits per compressed bit")

	add("link.send_wire_ns_per_line", "ns/line", "lower", "host", "Link.SendWire of each marshalled payload (flits and toggles)")

	add("workload.line_data_ns", "ns/op", "lower", "host", "Generator.LineData of the workload's model")
	add("workload.next_ns", "ns/op", "lower", "host", "Generator.Next of the workload's model")
	add("workload.linecache_hit_share", "share", "higher", "count", "LineData calls served by the generator's line cache")
	add("workload.mix_next_ns", "ns/op", "lower", "host", "spec.Mix.Next of the harness's mix")

	add("cablepipe.bulk_pipelined_mb_per_s", "MB/s", "higher", "host", "loopback TCP, Options.Pipeline on, first Write to decoder EOF")
	add("cablepipe.bulk_direct_mb_per_s", "MB/s", "higher", "host", "the same with Options.Pipeline off")
	add("cablepipe.sink_wait_share", "share", "lower", "host", "share of the bulk transfer spent inside conn.Write")
	add("cablepipe.source_wait_share", "share", "lower", "host", "share of the bulk transfer the decoder spent inside conn.Read")
	add("cablepipe.writes_per_frame", "1/frame", "lower", "count", "conn.Write calls per codec frame")
	add("cablepipe.bytes_per_write", "B", "higher", "count", "wire bytes per conn.Write")
	add("cablepipe.frame_rtt_p99_us", "us", "lower", "host", "2 KiB Write+Flush until decoded over loopback TCP, p99")
	add("cablepipe.frame_rtt_p999_us", "us", "lower", "host", "the same, p99.9")
	add("cablepipe.frame_encode_p50_us", "us", "lower", "host", "2 KiB Write+Flush into memory, median")
	add("cablepipe.cli_roundtrip_mb_per_s", "MB/s", "higher", "host", "the built cablepipe binary, encode piped into decode, once")

	add("topo.run_s", "s", "lower", "host", "one fault-injected 16-chip mesh run")
	add("topo.transfers_per_s", "1/s", "higher", "host", "link transfers simulated per second")
	add("topo.allocs_per_transfer", "1/xfer", "lower", "count", "heap allocations per link transfer")
	add("topo.alloc_bytes_per_transfer", "B/xfer", "lower", "count", "heap bytes per link transfer")
	add("topo.parallel_speedup", "x", "higher", "host", "run time at Parallelism 1 over run time at nproc")
	add("topo.mean_link_util", "share", "higher", "sim", "mean wire occupancy of the CABLE pass")
	add("topo.remote_hit_share", "share", "higher", "count", "transfers delivered as a header-only cache reference")

	add("fault.corrupt_ns_per_line", "ns/line", "lower", "host", "Injector.Corrupt on a 512-bit image at the soak's bit rate")
	add("fault.injected_share", "share", "lower", "count", "link transfers whose wire image was corrupted")
	add("fault.detected_share", "share", "higher", "count", "corrupted transfers that surfaced as decode errors")
	add("fault.raw_fallback_share", "share", "lower", "count", "link transfers resent raw")

	for _, id := range suiteIDs {
		add("experiments."+id+"_s", "s", "lower", "host", "driver time of "+id+" inside the parallel, memoised suite")
	}
	add("experiments.memo_hit_share", "share", "higher", "count", "cell-memo hits of lookups during the suite")
	add("experiments.memo_speedup", "x", "higher", "host", "suite time with the cell memo off over on")
	add("experiments.parallel_speedup", "x", "higher", "host", "suite time at Parallelism 1 over nproc")

	add("sim.memlink_cell_s", "s", "lower", "host", "one memory-link cell with the baseline meters on")
	add("sim.memlink_protocol_s", "s", "lower", "host", "one small memory-link run with meters off")
	add("sim.memlink_protocol_allocs", "count", "lower", "count", "heap allocations of that run")
	add("sim.multichip_s", "s", "lower", "host", "one 4-node coherence-link run")
	add("sim.noninclusive_s", "s", "lower", "host", "one non-inclusive home-agent run")
	add("sim.timing_s", "s", "lower", "host", "one timing-simulator run")
	add("sim.recorder_overhead_share", "share", "lower", "host", "extra time of the memory-link cell with a flight recorder attached")
	add("sim.tracer_overhead_share", "share", "lower", "host", "extra time of the memory-link cell with an encode tracer attached")

	add("obs.counter_add_ns", "ns/op", "lower", "host", "Counter.Add on a private registry")
	add("obs.snapshot_us", "us", "lower", "host", "Snapshot of the process registry after the simulator rungs")

	add("harness.trace_overhead_share", "share", "lower", "host", "extra time per repetition with spans and the CPU profile on")
	return defs
}
