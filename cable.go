// Package cable is a library implementation of CABLE — a CAche-Based
// Link Encoder for bandwidth-starved manycores (Nguyen, Fuchs,
// Wentzlaff; MICRO 2018).
//
// CABLE compresses point-to-point links between coherent caches by
// re-purposing the data already resident in those caches as a massive,
// scalable compression dictionary. The larger "home" cache (an off-chip
// DRAM-buffer L4, or a home node's LLC across a coherence link) finds
// cache lines similar to the one being sent, compresses the line as a
// DIFF against up to three reference lines known — via its Way-Map
// Table — to also be resident in the smaller "remote" cache, and
// transmits short index+way pointers (RemoteLIDs) instead of raw data.
//
// # Layers
//
// The package exposes three layers:
//
//   - The protocol layer: NewLink builds a HomeEnd/RemoteEnd pair over
//     two caches you drive yourself (see examples/quickstart).
//   - The simulation layer: RunMemoryLink, RunMultiChip and RunTiming
//     reproduce the paper's evaluation systems over synthetic SPEC2006
//     workload models (see examples/memlink and examples/multichip).
//   - The experiment layer: RunExperiment regenerates any table or
//     figure of the paper by id (see cmd/cablereport).
//
// All compression engines are bit-exact: every payload decodes to the
// original line, and the simulators verify this on every transfer.
package cable

import (
	"io"

	"cable/internal/cache"
	"cable/internal/codec"
	"cable/internal/compress"
	"cable/internal/core"
	"cable/internal/experiments"
	"cable/internal/fault"
	"cable/internal/link"
	"cable/internal/obs"
	"cable/internal/sim"
	"cable/internal/topo"
	"cable/internal/trace"
	"cable/internal/workload"
	"cable/internal/workload/spec"
)

// Cache is a set-associative, coherent cache model; CABLE link ends
// attach to a pair of them.
type Cache = cache.Cache

// CacheConfig describes a cache geometry.
type CacheConfig = cache.Config

// LineID identifies a cache line by physical position (index + way) —
// the compact pointer CABLE transmits instead of address tags.
type LineID = cache.LineID

// State is a cache-coherence state. Only Shared lines serve as
// compression references.
type State = cache.State

// Coherence states.
const (
	Invalid   = cache.Invalid
	Shared    = cache.Shared
	Exclusive = cache.Exclusive
	Modified  = cache.Modified
)

// Config holds the CABLE framework parameters (§VI-A of the paper):
// search width, data access count, reference count, hash table sizing,
// the delegated engine, and the standalone-compression threshold.
type Config = core.Config

// Payload is the unit CABLE transmits: a 1-bit flag, a 2-bit reference
// count, the RemoteLIDs, and the variable-length DIFF.
type Payload = core.Payload

// HomeEnd is the compressing side of a link (the larger cache).
type HomeEnd = core.HomeEnd

// RemoteEnd is the decompressing side of a link (the smaller cache).
type RemoteEnd = core.RemoteEnd

// BatchFill is one request of a batched HomeEnd.EncodeFills call.
type BatchFill = core.BatchFill

// FillLatency is the cycle cost of one encoded fill (§IV-D pipeline).
type FillLatency = core.FillLatency

// Engine is a pluggable per-line compression algorithm; CABLE is a
// framework and delegates the actual DIFF coding to one of these. Each
// engine is one encoder body (CompressScratch) and one decoder body
// (DecompressFrom); Compress and Decompress drive them on one line.
type Engine = compress.Engine

// LinkConfig describes the physical link (width, frequency, packing).
type LinkConfig = link.Config

// DefaultConfig returns the paper's baseline CABLE parameters
// (16 search signatures, 6 data accesses, 3 references, 2-deep
// full-sized hash table, LBE engine, 16x standalone threshold).
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultLinkConfig returns the paper's 16-bit 9.6 GHz off-chip link.
func DefaultLinkConfig() LinkConfig { return link.DefaultConfig() }

// NewCache builds a cache; geometry must be power-of-two sets.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cache.New(cfg), nil
}

// NewLink builds a CABLE pipeline between a home cache and a remote
// cache. The home cache must be at least as large (in sets) as the
// remote cache and is assumed inclusive of it.
func NewLink(cfg Config, home, remote *Cache) (*HomeEnd, *RemoteEnd, error) {
	he, err := core.NewHomeEnd(cfg, home, remote)
	if err != nil {
		return nil, nil, err
	}
	re, err := core.NewRemoteEnd(cfg, remote)
	if err != nil {
		return nil, nil, err
	}
	return he, re, nil
}

// NewEngine builds a compression engine by name: "cpack", "cpack128",
// "bdi", "fpc", "lbe", "lbe256", "zero", "oracle" or "gzip-seeded".
func NewEngine(name string) (Engine, error) { return compress.NewEngine(name) }

// Engines lists the built-in engine names.
func Engines() []string { return compress.EngineNames() }

// Compress encodes line with e; refs, if non-empty, seed the engine's
// dictionary. The result owns its bits, and no link's compress.*
// counters move.
func Compress(e Engine, line []byte, refs [][]byte) compress.Encoded {
	return e.CompressScratch(new(compress.Scratch), line, refs)
}

// Decompress inverts Compress given the same refs and the line size.
func Decompress(e Engine, enc compress.Encoded, refs [][]byte, lineSize int) ([]byte, error) {
	return compress.DecompressWith(e, nil, enc, refs, lineSize)
}

// Benchmarks lists the synthetic SPEC2006 workload models.
func Benchmarks() []string { return workload.Names() }

// MemoryLinkConfig configures the functional off-chip memory-link
// simulation (LLC + L4 + CABLE + baseline compressors).
type MemoryLinkConfig = sim.MemLinkConfig

// MemoryLinkResult holds per-scheme compression ratios.
type MemoryLinkResult = sim.MemLinkResult

// DefaultMemoryLinkConfig returns the Table IV memory-link setup for
// the given co-running benchmarks.
func DefaultMemoryLinkConfig(benchmarks ...string) MemoryLinkConfig {
	return sim.DefaultMemLinkConfig(benchmarks...)
}

// RunMemoryLink runs the functional memory-link simulation.
func RunMemoryLink(cfg MemoryLinkConfig) (*MemoryLinkResult, error) {
	return sim.RunMemoryLink(cfg)
}

// MultiChipConfig configures the 4-chip NUMA coherence simulation.
type MultiChipConfig = sim.MultiChipConfig

// MultiChipResult holds coherence-link compression ratios.
type MultiChipResult = sim.MultiChipResult

// DefaultMultiChipConfig returns the paper's 4-node NUMA setup.
func DefaultMultiChipConfig(benchmark string) MultiChipConfig {
	return sim.DefaultMultiChipConfig(benchmark)
}

// RunMultiChip runs the coherence-link simulation.
func RunMultiChip(cfg MultiChipConfig) (*MultiChipResult, error) {
	return sim.RunMultiChip(cfg)
}

// TimingConfig configures the cycle-approximate throughput/latency
// simulation.
type TimingConfig = sim.TimingConfig

// TimingResult reports IPC, throughput, utilization and energy counts.
type TimingResult = sim.TimingResult

// DefaultTimingConfig returns the Table IV timing setup.
func DefaultTimingConfig(scheme, benchmark string) TimingConfig {
	return sim.DefaultTimingConfig(scheme, benchmark)
}

// RunTiming runs the timing simulation.
func RunTiming(cfg TimingConfig) (*TimingResult, error) {
	return sim.RunTiming(cfg)
}

// WayMap abstracts the way-map table; SuperWMT pools one across links.
type WayMap = core.WayMap

// SuperWMT is the §IV-D extension: a single capacity-managed way-map
// pool competitively shared by several links, in place of per-link
// full WMTs.
type SuperWMT = core.SuperWMT

// NewSuperWMT builds a pooled way-map with roughly capacity entries. It
// returns an error for ways < 1 and for a cache pair no link could use
// (home with fewer sets than remote, unequal line sizes).
func NewSuperWMT(capacity, ways int, home, remote *Cache) (*SuperWMT, error) {
	return core.NewSuperWMT(capacity, ways, home, remote)
}

// NewLinkWithWayMap builds a CABLE pipeline whose home end uses an
// explicit way-map — typically a SuperWMT view.
func NewLinkWithWayMap(cfg Config, home, remote *Cache, wm WayMap) (*HomeEnd, *RemoteEnd, error) {
	he, err := core.NewHomeEndWithWayMap(cfg, home, remote, wm)
	if err != nil {
		return nil, nil, err
	}
	re, err := core.NewRemoteEnd(cfg, remote)
	if err != nil {
		return nil, nil, err
	}
	return he, re, nil
}

// NonInclusiveConfig configures the §IV-C non-inclusive Home Agent
// simulation (opportunistic compression, write-backs uncompressed).
type NonInclusiveConfig = sim.NonInclusiveConfig

// NonInclusiveResult reports the opportunistic-compression outcome.
type NonInclusiveResult = sim.NonInclusiveResult

// DefaultNonInclusiveConfig returns a Haswell-EP-style setup.
func DefaultNonInclusiveConfig(benchmark string) NonInclusiveConfig {
	return sim.DefaultNonInclusiveConfig(benchmark)
}

// RunNonInclusive runs the non-inclusive simulation.
func RunNonInclusive(cfg NonInclusiveConfig) (*NonInclusiveResult, error) {
	return sim.RunNonInclusive(cfg)
}

// TopologyConfig configures the discrete-event N-chip topology
// simulation: chips wired as a ring, 2D mesh (XY routing) or star,
// with one CABLE home/remote end pair per directed link and
// shared-home contention queues at every chip's encoder.
type TopologyConfig = topo.Config

// TopologyResult reports a topology run: aggregate compression,
// remote-dictionary hit rate, raw vs CABLE makespans, and per-link
// statistics.
type TopologyResult = topo.Result

// TopologyLinkStat is one directed link's row of a TopologyResult.
type TopologyLinkStat = topo.LinkStat

// Topology shapes accepted by TopologyConfig.Shape.
const (
	TopologyRing = topo.ShapeRing
	TopologyMesh = topo.ShapeMesh
	TopologyStar = topo.ShapeStar
)

// DefaultTopologyConfig returns the 16-chip mesh setup the scale-out
// study uses.
func DefaultTopologyConfig(benchmark string) TopologyConfig {
	return topo.DefaultConfig(benchmark)
}

// RunTopology runs the discrete-event topology simulation. Results are
// bit-identical at any cfg.Parallelism.
func RunTopology(cfg TopologyConfig) (*TopologyResult, error) {
	return topo.Run(cfg)
}

// WorkloadSpec is a declarative multi-client workload (JSON DSL): a
// named mix of clients with rate fractions, arrival processes
// (poisson, bursty, weibull — seeded and deterministic), per-client
// content models and phase changes over virtual time. Feed one to the
// simulators via ExperimentOptions.Workload,
// MemoryLinkConfig.Workload or TopologyConfig.Workload.
type WorkloadSpec = spec.Workload

// ParseWorkloadSpec compiles a workload spec from its JSON encoding.
func ParseWorkloadSpec(data []byte) (*WorkloadSpec, error) { return spec.Parse(data) }

// LoadWorkloadSpec reads and compiles a workload-spec JSON file (the
// `-workload-spec` CLI flag; see examples/workloads).
func LoadWorkloadSpec(path string) (*WorkloadSpec, error) { return spec.Load(path) }

// RecordedTrace is a fully-loaded cabletrace capture: header plus
// decoded accesses, replayable through ExperimentOptions.Replay,
// MemoryLinkConfig.Replay or TopologyConfig.Replay.
type RecordedTrace = trace.Trace

// LoadTrace reads a capture file written by cabletrace (or
// spec.RecordClients) in the CBLT0002 format; a legacy CBLT0001 file is
// rejected with an error naming its version.
func LoadTrace(path string) (*RecordedTrace, error) { return trace.Load(path) }

// FaultConfig describes deterministic link fault injection (per-bit
// flip rate, truncation rate, seed). The zero value injects nothing
// and keeps every simulation byte-identical to a fault-free build; a
// non-zero rate degrades corrupted transfers to counted decode errors
// and raw-transfer fallbacks instead of panics.
type FaultConfig = fault.Config

// ExperimentOptions tune experiment scale (Quick shrinks runs for CI).
type ExperimentOptions = experiments.Options

// ExperimentResult is one regenerated table/figure.
type ExperimentResult = experiments.Result

// Experiments lists every reproducible table/figure id.
func Experiments() []string { return experiments.IDs() }

// DescribeExperiment returns the one-line description of an id.
func DescribeExperiment(id string) string { return experiments.Describe(id) }

// RunExperiment regenerates one table/figure of the paper.
func RunExperiment(id string, opt ExperimentOptions) (*ExperimentResult, error) {
	return experiments.Run(id, opt)
}

// ExperimentStream is one completed experiment as delivered by
// StreamExperiments: the result (or error) plus driver wall-clock time.
type ExperimentStream = experiments.StreamResult

// RunExperiments regenerates the given tables/figures across a worker
// pool bounded by opt.Parallelism (GOMAXPROCS when zero), returning
// results in ids order. Parallel runs are bit-identical to serial ones.
func RunExperiments(ids []string, opt ExperimentOptions) ([]*ExperimentResult, error) {
	return experiments.RunAll(ids, opt)
}

// StreamExperiments is RunExperiments with incremental delivery: each
// result arrives on the channel as soon as it and every earlier id have
// finished, so consumers can render progressively without reordering.
func StreamExperiments(ids []string, opt ExperimentOptions) <-chan ExperimentStream {
	return experiments.RunAllStream(ids, opt)
}

// NewEncodeTracer returns nil: the decision tracer is deleted
// (MemoryLinkResult.Home carries the class mix). The name survives, like
// MemoryLinkConfig.Trace, only because the frozen benchmark/ calls it;
// ROADMAP item 5's [benchmark] PR drops both with the rung that does.
func NewEncodeTracer(capacity, sample int) *struct{} { return nil }

// WriteMetrics dumps the global metrics registry as indented JSON.
// With includeVolatile false the dump is deterministic: the cell memo's
// own counters are excluded, so two runs of the same workload produce
// byte-identical output at any parallelism, memo on or off.
func WriteMetrics(w io.Writer, includeVolatile bool) error {
	return obs.Default().WriteJSON(w, includeVolatile)
}

// WriteMetricsFile writes the WriteMetrics dump to a file.
func WriteMetricsFile(path string, includeVolatile bool) error {
	return obs.Default().WriteJSONFile(path, includeVolatile)
}

// ResetMetrics zeroes every metric in the global registry (metric
// identities survive, so held counter handles keep working).
func ResetMetrics() { obs.Default().Reset() }

// MetricValue reads one counter's current total, volatile ones
// included, from the global registry (0 when the counter does not exist
// yet). The CLIs use the delta of "core.source_bits" less
// "experiments.cellmemo_saved_bytes" across a run for their GB/s
// summary line.
func MetricValue(name string) uint64 {
	return obs.Default().Snapshot(true).Counters[name]
}

// Flight collects one virtual-time flight recorder per simulation cell
// of an experiment run. Attach one via ExperimentOptions.Flight, then
// export with WriteWindowsFile / WriteTimelineFile after the run: the
// files are byte-identical at any Parallelism, memo on or off, any
// GOMAXPROCS. Its mutex guards the cell-key map, which the run's
// workers register into concurrently.
type Flight = obs.Flight

// FlightConfig sizes flight recorders: virtual-time window length and
// ring bounds.
type FlightConfig = obs.FlightConfig

// FlightRecorder is one simulation's virtual-time flight recorder:
// per-link windowed counters plus a span/event timeline. Attach one
// directly via the sim configs' Recorder fields, or let a Flight manage
// one per cell.
type FlightRecorder = obs.Recorder

// NewFlight builds a flight collection whose recorders share cfg.
func NewFlight(cfg FlightConfig) *Flight { return obs.NewFlight(cfg) }

// NewFlightRecorder builds a standalone flight recorder.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder { return obs.NewRecorder(cfg) }

// StreamEncoder compresses a byte stream through a CABLE link: an
// io.Writer whose dictionary is a cache the decoder mirrors in
// lock-step (see internal/codec for the wire format). Close emits the
// tail and end frames — a stream that was not Closed does not decode to
// EOF; Reset re-arms the instance for another stream, making encoders
// sync.Pool-friendly.
type StreamEncoder = codec.Encoder

// StreamDecoder reconstructs the plaintext from a StreamEncoder's
// output: an io.Reader configured entirely by the stream header.
type StreamDecoder = codec.Decoder

// StreamOptions configures NewStreamEncoder.
type StreamOptions = codec.Options

// StreamCodecStats counts one stream's traffic on either endpoint.
type StreamCodecStats = codec.StreamStats

// ErrBadFrame marks structural damage to a codec stream's framing. A
// failed frame check is ErrCRCMismatch, a cut stream ErrTruncatedPayload
// (wrapping io.ErrUnexpectedEOF); ErrCorruptDiff and ErrBadReference
// mark a payload that passed the check and still does not decode.
var ErrBadFrame = codec.ErrBadFrame

// NewStreamEncoder builds a streaming encoder writing to w. A zero
// Options selects a 1 MB, 8-way dictionary of 64-byte lines, the "lbe"
// engine, and 32-line frames.
func NewStreamEncoder(w io.Writer, o StreamOptions) (*StreamEncoder, error) {
	return codec.NewEncoder(w, o)
}

// NewStreamDecoder builds a streaming decoder reading from r.
func NewStreamDecoder(r io.Reader) *StreamDecoder { return codec.NewDecoder(r) }
