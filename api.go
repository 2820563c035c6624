package ppm

import (
	"io"

	"ppm/internal/array"
	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/cost"
	"ppm/internal/decode"
	"ppm/internal/fault"
	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/pipeline"
	"ppm/internal/repair"
	"ppm/internal/stripe"
)

// Code is an erasure-code instance exposed as a parity-check matrix over
// GF(2^w) plus its parity positions. SD, PMDS, LRC and RS all implement
// it; PPM plans and decodes any of them uniformly.
type Code = codes.Code

// Scenario is a failure pattern: the set of unreadable sector indices.
type Scenario = codes.Scenario

// Stripe is one stripe's worth of sector buffers (n strips x r rows).
type Stripe = stripe.Stripe

// Decoder runs PPM encode/decode against a bound code instance.
type Decoder = core.Decoder

// Option configures a Decoder.
type Option = core.Option

// Plan is a prepared decode: log table, partition, per-sub-matrix
// inverses and the chosen calculation sequences, plus the cost model.
type Plan = core.Plan

// Strategy selects the planning policy.
type Strategy = core.Strategy

// Planning strategies. StrategyAuto performs the paper's full cost
// optimisation (falling back to the whole-matrix MatrixFirst decode in
// the rare configurations where C2 < C4); StrategyPPM is the production
// fast path; the whole-matrix strategies are the traditional baselines.
const (
	StrategyAuto             = core.StrategyAuto
	StrategyPPM              = core.StrategyPPM
	StrategyPPMC3            = core.StrategyPPMMatrixFirstRest
	StrategyWholeNormal      = core.StrategyWholeNormal
	StrategyWholeMatrixFirst = core.StrategyWholeMatrixFirst
)

// Stats counts mult_XORs region operations across decodes — the paper's
// computational-cost unit. Attach one with WithStats to audit a decode
// against the C1..C4 model.
type Stats = kernel.Stats

// SD is a Sector-Disk code SD^{m,s}_{n,r}: n disks, r rows, the last m
// disks plus s extra sectors hold coding information.
type SD = codes.SD

// PMDS is a Partial-MDS code, evaluated through the SD construction as
// in the paper.
type PMDS = codes.PMDS

// LRC is a (k, l, g) Local Reconstruction Code: l local parities over
// balanced groups plus g global parities.
type LRC = codes.LRC

// RS is the symmetric-parity Reed-Solomon (Cauchy) baseline.
type RS = codes.RS

// LRCLocality is an LRC with (r, δ) locality: δ-1 local parities per
// group form a local MDS code, so up to δ-1 failures in a group repair
// locally — and PPM extracts them as one multi-row independent
// sub-matrix.
type LRCLocality = codes.LRCLocality

// EVENODD is the classic XOR-only RAID-6 code (Blaum et al. 1995),
// included as a symmetric-parity baseline.
type EVENODD = codes.EVENODD

// RDP is Row-Diagonal Parity (Corbett et al. 2004), the other classic
// XOR-only RAID-6 baseline.
type RDP = codes.RDP

// NewSD constructs an SD^{m,s}_{n,r} instance, choosing the word size
// and coding coefficients automatically.
func NewSD(n, r, m, s int) (*SD, error) { return codes.NewSD(n, r, m, s) }

// NewPMDS constructs a PMDS(m, s) instance on an n x r stripe.
func NewPMDS(n, r, m, s int) (*PMDS, error) { return codes.NewPMDS(n, r, m, s) }

// NewLRC constructs a (k, l, g) LRC instance.
func NewLRC(k, l, g int) (*LRC, error) { return codes.NewLRC(k, l, g) }

// NewRS constructs an (n, n-m) Reed-Solomon instance with r rows.
func NewRS(n, r, m int) (*RS, error) { return codes.NewRS(n, r, m) }

// NewLRCLocality constructs a (k, l, δ, g) locality LRC.
func NewLRCLocality(k, l, delta, g int) (*LRCLocality, error) {
	return codes.NewLRCLocality(k, l, delta, g)
}

// NewEVENODD constructs the EVENODD instance for prime p (n = p+2
// disks, r = p-1 rows).
func NewEVENODD(p int) (*EVENODD, error) { return codes.NewEVENODD(p) }

// NewRDP constructs the RDP instance for prime p (n = p+1 disks,
// r = p-1 rows).
func NewRDP(p int) (*RDP, error) { return codes.NewRDP(p) }

// BlockParallelDecode runs the related-work block-level parallelism
// baseline: the traditional whole-matrix computation with the byte
// ranges split across T workers. Same total computation as
// TraditionalDecode (cost C1); contrast with PPM's matrix-oriented
// partition, which reduces the computation to C4 as well.
func BlockParallelDecode(c Code, st *Stripe, sc Scenario, threads int, stats *Stats) error {
	return decode.DecodeBlockParallel(c, st, sc, threads, decode.Options{Stats: stats})
}

// NewScenario builds a validated failure scenario from sector indices.
func NewScenario(c Code, faulty []int) (Scenario, error) { return codes.NewScenario(c, faulty) }

// EncodingScenario returns the scenario whose erasures are the code's
// parity positions; decoding it is encoding.
func EncodingScenario(c Code) Scenario { return codes.EncodingScenario(c) }

// DataPositions returns the sector indices that hold user data.
func DataPositions(c Code) []int { return codes.DataPositions(c) }

// Decodable reports whether the failure pattern is recoverable by the
// code instance.
func Decodable(c Code, sc Scenario) bool { return codes.Decodable(c, sc) }

// CensusResult summarises a fault-tolerance census.
type CensusResult = codes.CensusResult

// Census measures the fraction of T-failure patterns the instance can
// decode, exhaustively when C(sectors, T) fits the pattern budget and
// by seeded sampling otherwise. For the Azure (12,2,2)-LRC this
// reproduces the published profile: 100% of 3-failure patterns, 85.55%
// ("86%") of 4-failure patterns.
func Census(c Code, t, maxPatterns int, seed int64) (CensusResult, error) {
	return codes.Census(c, t, maxPatterns, seed)
}

// NewStripe allocates an n x r stripe with the given sector size
// (a positive multiple of 4 bytes).
func NewStripe(n, r, sectorSize int) (*Stripe, error) { return stripe.New(n, r, sectorSize) }

// StripeForCode allocates a stripe matching the code's geometry with a
// total size as close to stripeBytes as alignment allows.
func StripeForCode(c Code, stripeBytes int) (*Stripe, error) { return stripe.ForCode(c, stripeBytes) }

// NewDecoder builds a PPM decoder for the code.
func NewDecoder(c Code, opts ...Option) *Decoder { return core.NewDecoder(c, opts...) }

// WithThreads sets the worker count T for the parallel phase (<= 0
// selects the paper's default min(4, cores)).
func WithThreads(t int) Option { return core.WithThreads(t) }

// WithStrategy overrides the planning strategy (default StrategyPPM).
func WithStrategy(s Strategy) Option { return core.WithStrategy(s) }

// WithStats attaches an operation counter shared across decodes.
func WithStats(s *Stats) Option { return core.WithStats(s) }

// WithPlanCache bounds the Decoder's built-in plan cache (on by
// default, capacity core.DefaultPlanCacheSize): Decode keeps up to
// capacity built plans, keyed by canonicalised failure pattern +
// strategy, so repeated decodes of the same pattern — a whole-disk
// rebuild decodes thousands of identically failed stripes — skip
// planning and run at DecodeWithPlan speed with no per-stripe
// allocations. capacity <= 0 disables caching.
func WithPlanCache(capacity int) Option { return core.WithPlanCache(capacity) }

// BuildPlan prepares a decode plan without touching data, for
// inspection, cost analysis or reuse across stripes.
func BuildPlan(c Code, sc Scenario, strategy Strategy) (*Plan, error) {
	return core.BuildPlan(c, sc, strategy)
}

// TraditionalDecode runs the serial whole-matrix baseline (Normal
// sequence, cost C1) — the method PPM is benchmarked against.
func TraditionalDecode(c Code, st *Stripe, sc Scenario, stats *Stats) error {
	return decode.Decode(c, st, sc, decode.Options{Stats: stats})
}

// TraditionalEncode encodes with the serial whole-matrix baseline.
func TraditionalEncode(c Code, st *Stripe, stats *Stats) error {
	return decode.Encode(c, st, decode.Options{Stats: stats})
}

// Verify checks H * B == 0 over the stripe: true iff the stripe holds a
// consistent codeword.
func Verify(c Code, st *Stripe) (bool, error) { return decode.Verify(c, st) }

// ScrubResult reports what a scrub found: a clean stripe, a located
// single corruption, or detected-but-ambiguous corruption.
type ScrubResult = decode.ScrubResult

// Scrub detects silent data corruption from the parity-check syndrome
// and localises it when exactly one sector is corrupted and the code's
// H columns make the explanation unique.
func Scrub(c Code, st *Stripe) (ScrubResult, error) { return decode.Scrub(c, st) }

// ScrubAndRepair scrubs and, when a single corrupted sector is located,
// recovers it in place as a one-erasure decode.
func ScrubAndRepair(c Code, st *Stripe, stats *Stats) (ScrubResult, error) {
	return decode.ScrubAndRepair(c, st, decode.Options{Stats: stats})
}

// Updater implements the small-write path: patch the parity sectors
// affected by one data-sector overwrite instead of re-encoding the
// stripe (cost: the nonzero count of the generator column, e.g. 3
// region ops for an LRC(k,3,2) block vs a full re-encode).
type Updater = core.Updater

// NewUpdater derives and compiles the code's generator for in-place
// parity patching.
func NewUpdater(c Code) (*Updater, error) { return core.NewUpdater(c) }

// Array is a multi-stripe erasure-coded disk array with failure
// injection and PPM-driven whole-array reconstruction.
type Array = array.Array

// RepairStats summarises a whole-array reconstruction.
type RepairStats = array.RepairStats

// NewArray builds an encoded array of numStripes stripes with
// deterministic random data.
func NewArray(c Code, numStripes, sectorSize int, seed int64) (*Array, error) {
	return array.New(c, numStripes, sectorSize, seed)
}

// StreamConfig tunes the streaming multi-stripe pipeline: Depth bounds
// the stripes in flight (backpressure; Depth 1 runs each stream on the
// caller's goroutine with no stage goroutines), Workers the compute
// shard goroutines (default: the core count), Threads the per-stripe
// parallel phase (default 1 — the pipeline parallelises across
// stripes). NewStreamPool picks Depth 1 when its engines cover the
// cores.
type StreamConfig = pipeline.Config

// StreamResult reports a stream run: stripes drained and payload bytes
// moved (consumed on encode, written on decode).
type StreamResult = pipeline.Result

// StreamEngine is a reusable streaming pipeline bound to one code and
// one failure scenario: the plan is compiled once at construction and
// amortised over every stripe of every Run. Use NewStreamEngine for
// repeated streams or custom Source/Sink pairs; the EncodeStream /
// DecodeStream helpers cover the common one-shot reader/writer case.
type StreamEngine = pipeline.Engine

// StreamSource feeds stripes into a StreamEngine in index order.
type StreamSource = pipeline.Source

// StreamSink receives processed stripes in strict stripe order.
type StreamSink = pipeline.Sink

// StopStream is the sentinel a StreamSink's Drain returns to end a
// stream early without an error — the stopping stripe counts as
// drained, intake ceases, and Run reports success. DecodeStream uses it
// internally once the requested payload is satisfied.
var StopStream = pipeline.Stop

// StageStats snapshots a stream engine's (or pool's) per-stage stall
// counters: nanoseconds the fill stage waited for free slabs, compute
// shards waited for work, and the in-order drain waited on stripe
// completion — plus the stripes drained. The dominant counter names the
// bottleneck stage. A Depth-1 engine runs its stages in turn, so its
// stalls are always 0.
type StageStats = pipeline.StageStats

// ErrEnginePoisoned is wrapped into run errors after a compute shard
// has died; a StreamPool replaces such engines at checkout instead of
// handing them out.
var ErrEnginePoisoned = pipeline.ErrEnginePoisoned

// SectorChecksums returns one CRC-32C (Castagnoli) checksum per sector
// of the stripe, in global sector order — the integrity row an archive
// records at encode time to catch silent corruption on read-back.
func SectorChecksums(st *Stripe) []uint32 { return fault.SectorChecksums(st) }

// VerifyStripeChecksums compares a stripe against a recorded checksum
// row and returns the global indices of corrupt sectors (nil when
// clean). Demote the returned indices to erasures and decode to heal.
func VerifyStripeChecksums(st *Stripe, sums []uint32) []int {
	return fault.VerifyStripe(st, sums, nil)
}

// StreamPool is a fixed set of stream engines serving many concurrent
// streams for one code + scenario pair: each Run checks an engine out,
// so up to Size streams overlap their store I/O (and compute, given
// cores) while excess callers queue — the admission bound. A pool with
// an engine per core runs each stream on its caller's goroutine by
// default (see NewStreamPool).
type StreamPool = pipeline.Pool

// NewStreamPool builds a pool of size engines (size <= 0 selects the
// core count, at least 2). With cfg.Workers unset, the engines divide
// the host's cores between them; when that leaves one shard per engine
// and cfg.Depth is unset too, the engines get Depth 1 and run each
// stream on its caller's goroutine, with one slab each. Such a pool
// over a source that blocks per read overlaps its streams with each
// other but no longer one stream's fill with its drain; set
// cfg.Depth >= 2 to keep that overlap.
func NewStreamPool(c Code, sc Scenario, sectorSize, size int, cfg StreamConfig) (*StreamPool, error) {
	return pipeline.NewPool(c, sc, sectorSize, size, cfg)
}

// NewStreamEngine builds a reusable pipeline engine for one code +
// scenario pair (use EncodingScenario(c) for encoding). sectorSize > 0
// pre-allocates Depth stripe slabs; sectorSize == 0 builds a slab-less
// engine for batch sources that hand over caller-owned stripes. Close
// the engine when done.
func NewStreamEngine(c Code, sc Scenario, sectorSize int, cfg StreamConfig) (*StreamEngine, error) {
	return pipeline.New(c, sc, sectorSize, cfg)
}

// EncodeStream reads payload bytes from src, encodes them through the
// streaming pipeline — plan compiled once, Depth stripes in flight,
// stripe reads overlapping compute — and writes full stripe images
// (n*r sectors, row-major) to dst. The final stripe is zero-padded;
// StreamResult.Bytes is the payload size a later DecodeStream needs to
// trim it.
func EncodeStream(c Code, dst io.Writer, src io.Reader, sectorSize int, cfg StreamConfig) (StreamResult, error) {
	return pipeline.EncodeStream(c, dst, src, sectorSize, cfg)
}

// DecodeStream reads stripe images from src, recovers the scenario's
// faulty sectors in each (their bytes in the stream are ignored and
// reconstructed), and writes the recovered payload to dst, trimmed to
// payload bytes (negative payload emits everything, padding included).
// An empty scenario makes it an overlapped extract of an intact stream.
func DecodeStream(c Code, dst io.Writer, src io.Reader, sc Scenario, payload int64, sectorSize int, cfg StreamConfig) (StreamResult, error) {
	return pipeline.DecodeStream(c, dst, src, sc, payload, sectorSize, cfg)
}

// EncodeBatch encodes an in-memory batch of stripes in place through
// the pipeline: one compiled plan, stripes sharded across the worker
// pool, Depth in flight.
func EncodeBatch(c Code, stripes []*Stripe, cfg StreamConfig) error {
	return pipeline.Batch(c, codes.EncodingScenario(c), stripes, cfg)
}

// DecodeBatch decodes one failure scenario across an in-memory batch of
// stripes in place — the whole-disk rebuild shape: every stripe failed
// identically, one plan serves them all.
func DecodeBatch(c Code, sc Scenario, stripes []*Stripe, cfg StreamConfig) error {
	return pipeline.Batch(c, sc, stripes, cfg)
}

// FieldFor returns the word size w (8, 16 or 32) the library selects
// for a stripe with the given number of sectors — the paper's
// field-switching rule behind the jagged lines of Figures 8-10.
func FieldFor(sectors int) (int, error) {
	f, err := gf.FieldFor(sectors)
	if err != nil {
		return 0, err
	}
	return f.W(), nil
}

// RepairPlanner plans minimal-read repairs for one code instance:
// which survivors to read and which compiled steps recover a wanted
// sector set, LRU-cached per (scenario, wanted) pair.
type RepairPlanner = repair.Planner

// RepairPlan is a compiled minimal-read repair: its ReadCols/ReadDisks
// name exactly the survivor sectors a caller must supply before
// Execute (or ExecuteRange, for a byte sub-range) recovers the wanted
// sectors in place.
type RepairPlan = repair.Plan

// RepairCost scores a repair plan: survivor sectors read (the
// repair-bandwidth term, compared first) and mult_XORs (the
// computational tiebreak).
type RepairCost = cost.RepairCost

// NewRepairPlanner builds a repair planner for the code. Plan(sc,
// wanted) picks the cheapest survivor set per failure — an LRC local
// group over the global parities, a minimized parity-check row when
// one beats the partition.
func NewRepairPlanner(c Code) *RepairPlanner { return repair.NewPlanner(c) }
