// Package pipeline is the streaming multi-stripe engine: it compiles a
// code's decode (or encode) plan once and then drives an unbounded
// sequence of stripes through a bounded three-stage pipeline —
// fill → compute → drain — so that I/O for stripe i+1 overlaps the
// compute of stripe i and the plan/schedule cost is amortised across
// the whole stream.
//
// The stages are connected by fixed-capacity channels carrying a fixed
// set of pre-allocated jobs (stripe slabs plus bookkeeping), so the
// engine exerts backpressure instead of queueing without bound and the
// steady state performs zero heap allocations per stripe. Compute is
// sharded stripe-by-stripe across the engine's shard goroutines;
// per-stripe scratch comes from the core executor's pools. The shards
// also fill the stripes of a ConcurrentSource themselves. An engine
// of Depth 1 has no stage goroutines: it fills, computes and drains
// each stripe in turn on the goroutine that called Run.
//
// Output is strictly in stripe order no matter how compute completes,
// and the error contract matches the executors': the failure with the
// lowest stripe index wins, deterministically, whether it came from the
// fill, compute or drain stage.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// Source produces the stripes the engine processes, in index order.
// Next either fills slab (the engine's pre-allocated buffer) and
// returns it, or returns a caller-owned stripe to process in place
// (the batch path; slab is nil when the engine was built without
// slabs). Returning (nil, nil) ends the stream. Next runs on the
// engine's fill goroutine (at Depth 1, the goroutine that called Run),
// never concurrently with itself, unless the source is a
// ConcurrentSource. A panic in Next fails the run at that stripe, as an
// error would.
//
// A slab is never zeroed: it holds the bytes of an earlier stripe of
// this run, or of another engine's run. Next must write every sector
// of a slab it returns, except the scenario's faulty positions, which
// the compute stage overwrites; a short final stripe zero-pads itself.
type Source interface {
	Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error)
}

// ConcurrentSource is a Source whose Next is safe to call on distinct
// indices at the same time, each with its own slab: having the
// ConcurrentNext method is the declaration. An engine of Depth > 1 then
// fills each stripe on the compute shard that computes it: the fill
// goroutine only hands out indices in order, and the shard calls Next
// before computing, so fills run on every shard and each stripe is
// computed while it is still in that core's cache.
// A declaring source must return (nil, nil) for every index past the
// end of its stream, since Next may be called on a few of them before
// the engine learns where the stream ended. Output order and the error
// contract are unchanged; every other source, and every source of a
// Depth-1 engine, fills sequentially.
type ConcurrentSource interface {
	Source
	// ConcurrentNext marks Next as safe on distinct indices at the same
	// time; the engine never calls it.
	ConcurrentNext()
}

// errStreamEnd is a shard's outcome for an index past the end of a
// concurrent source's stream.
var errStreamEnd = errors.New("pipeline: end of stream")

// Sink consumes processed stripes. Drain is called exactly once per
// successful stripe, in strictly increasing index order, from the
// goroutine that called Run — never concurrently with itself. Drain
// must not keep st after it returns: a slab goes back to the fill
// stage at once, and to another engine once this one is closed. A
// panic in Drain fails the run at that stripe, as an error would.
type Sink interface {
	Drain(idx int, st *stripe.Stripe) error
}

// DefaultDepth is the default number of in-flight stripes.
const DefaultDepth = 4

// Stop is the sentinel a Sink returns from Drain to end the stream
// early without an error: the stripe that returned it still counts as
// drained, intake stops at the next stripe boundary, everything in
// flight is recycled without further Drain calls, and Run returns nil.
// DecodeStream's payload-trimming sink uses it to stop decoding once
// the requested payload is satisfied instead of burning compute on
// stripes whose output would be trimmed entirely.
var Stop = errors.New("pipeline: stop")

// Config tunes an Engine.
type Config struct {
	// Depth bounds the number of stripes in flight (and the number of
	// stripe slabs the engine holds). Depth 1 runs on the caller's
	// goroutine: each stripe is filled, computed and drained in turn,
	// with one slab, no stage goroutines and the plan still amortised.
	// <= 0 selects max(DefaultDepth, Workers) — queue depth must cover
	// the compute shards or they starve, but it is otherwise an
	// independent knob (how much I/O to keep in flight, not how many
	// cores to use). NewPool picks Depth 1 for a pool whose engines
	// cover the cores.
	Depth int
	// Workers is the number of compute shards pulling stripes off the
	// fill stage, each on its own goroutine for the engine's lifetime;
	// <= 0 selects NumCPU. A Depth-1 engine has no shards and resolves
	// Workers to 1. Each stripe's plan runs at T = 1: the pipeline
	// parallelises across stripes, not within them.
	Workers int
	// Stats, when non-nil, accumulates mult_XORs across the stream.
	Stats *kernel.Stats
}

// job is one in-flight stripe. The engine pre-allocates Depth jobs and
// recycles them through the free list; nothing per-stripe is allocated
// after New.
type job struct {
	idx  int
	slab *stripe.Stripe // engine-owned buffer (nil in slab-less engines)
	st   *stripe.Stripe // the stripe being processed (slab or caller's)
	done chan error     // compute/fill outcome, capacity 1
}

// Engine is a reusable streaming pipeline bound to one code instance
// and one failure scenario. Build it once, Run it over any number of
// streams, Close it when finished. An Engine is not safe for concurrent
// Runs; distinct Engines are independent.
//
//ppm:nocopy
type Engine struct {
	code codes.Code
	dec  *core.Decoder
	plan *core.Plan // nil for the empty scenario: a pure passthrough
	cfg  Config

	free  chan *job     // recycled jobs (capacity Depth)
	work  chan *job     // fill → compute (capacity Depth; nil at Depth 1)
	order chan *job     // fill → drain, in index order (capacity Depth+1; nil at Depth 1)
	start chan struct{} // Run → fill stage wake-up (nil at Depth 1)

	sentinel *job // end-of-stream marker on order

	// Per-run state, published to the fill goroutine via the start
	// channel send (happens-before its receive), and to the shards via
	// the work channel. A Depth-1 engine reads it on the Run goroutine.
	// first is the index of the run's first stripe; shardFill marks a
	// concurrent source: the shards fill the stripes.
	src       Source
	ctx       context.Context
	first     int
	shardFill bool
	stop      atomic.Bool

	// shardErr records a compute-shard failure that escaped the per-job
	// path (a panic outside computeSafe). It poisons the engine: the
	// next RunContext surfaces it instead of running with fewer shards
	// than configured.
	shardErr atomic.Value // error

	closeOnce sync.Once
	closed    atomic.Bool

	// Stage stall accounting (see StageStats): cumulative nanoseconds
	// each stage spent blocked waiting on its upstream/downstream, plus
	// the stripes drained. running/runStart let the compute shards
	// exclude between-run idle time from their stall count. A Depth-1
	// engine's stages never wait on each other, so its stalls stay 0.
	fillStall    atomic.Int64
	computeStall atomic.Int64
	drainStall   atomic.Int64
	stripes      atomic.Int64
	running      atomic.Bool
	runStart     atomic.Int64 // UnixNano of the active run's start

	// Test hooks (same-package tests only): testDelay stalls a stripe's
	// compute to force out-of-order completion; testFail injects a
	// compute error for chosen indices.
	testDelay func(idx int)
	testFail  func(idx int) error
}

// New builds an engine for one code + scenario pair, compiling the plan
// once. sectorSize > 0 gives the engine Depth stripe slabs of that
// geometry for sources that fill buffers, taken from the slabs earlier
// engines gave back at Close where there are any (see slab.go);
// sectorSize == 0 builds a slab-less engine for sources that hand over
// caller-owned stripes (the batch path), and a negative size is an
// error. The scenario may be empty, in which case the compute stage is
// a passthrough (useful for overlapped read/extract with no repair).
// A Depth-1 engine starts no goroutines.
func New(c codes.Code, sc codes.Scenario, sectorSize int, cfg Config) (*Engine, error) {
	if sectorSize < 0 {
		return nil, fmt.Errorf("pipeline: negative sector size %d", sectorSize)
	}
	// Depth (queue) and Workers (parallelism) are distinct knobs with
	// independent defaults: workers follow the core count, depth covers
	// the shards plus I/O headroom. The old min(Depth, NumCPU) coupling
	// silently capped compute at DefaultDepth shards on many-core hosts.
	switch {
	case cfg.Depth == 1:
		cfg.Workers = 1 // computes on the Run goroutine
	case cfg.Workers <= 0:
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.Depth <= 0 {
		cfg.Depth = DefaultDepth
		if cfg.Depth < cfg.Workers {
			cfg.Depth = cfg.Workers
		}
	}
	if sectorSize > 0 && sectorSize%c.Field().WordBytes() != 0 {
		return nil, fmt.Errorf("pipeline: sector size %d not a multiple of GF(2^%d) words",
			sectorSize, c.Field().W())
	}

	e := &Engine{
		code: c,
		cfg:  cfg,
		free: make(chan *job, cfg.Depth),
	}
	e.dec = core.NewDecoder(c,
		core.WithThreads(1),
		core.WithStats(cfg.Stats))
	if len(sc.Faulty) > 0 {
		plan, err := core.BuildPlan(c, sc, core.StrategyAuto)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		e.plan = plan
	}
	for i := 0; i < cfg.Depth; i++ {
		j := &job{done: make(chan error, 1)}
		if sectorSize > 0 {
			slab, err := takeSlab(c.NumStrips(), c.NumRows(), sectorSize)
			if err != nil {
				return nil, err
			}
			j.slab = slab
		}
		e.free <- j
	}
	if cfg.Depth == 1 {
		return e, nil
	}
	e.work = make(chan *job, cfg.Depth)
	e.order = make(chan *job, cfg.Depth+1)
	e.start = make(chan struct{})
	e.sentinel = &job{}
	go e.fillLoop()
	// Each compute shard is its own goroutine serving stripes until
	// Close. Shards must not ride kernel.Workers.Run: it runs a task
	// inline when no pool worker is parked, and an inline shard returns
	// only at Close, so the shards after it would never start.
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			defer func() {
				if r := recover(); r != nil {
					e.shardErr.Store(fmt.Errorf("compute shard panicked: %v", r))
				}
			}()
			e.computeLoop()
		}()
	}
	return e, nil
}

// ErrEnginePoisoned marks an engine whose compute shards died outside
// the per-job path: RunContext wraps it, Healthy reports it, and Pool
// replaces the engine on its next checkout.
var ErrEnginePoisoned = errors.New("pipeline: engine poisoned")

// Plan returns the compiled plan (nil for the empty scenario), for
// inspection and cost analysis.
func (e *Engine) Plan() *core.Plan { return e.plan }

// Healthy reports whether the engine can still serve runs: not closed
// and not poisoned by a shard-level failure. Safe to call concurrently.
func (e *Engine) Healthy() bool {
	if e.closed.Load() {
		return false
	}
	err, _ := e.shardErr.Load().(error)
	return err == nil
}

// Config returns the engine's configuration with every default
// resolved.
func (e *Engine) Config() Config { return e.cfg }

// Close shuts the engine's stage goroutines down (a Depth-1 engine has
// none) and gives its slabs to the next engine of the same geometry.
// Close must not be called while a Run is in progress; it is
// idempotent and safe to call from several goroutines at once (two
// deferred Closes racing must not double-close the stage channels).
// A Sink must not hold a drained stripe past Drain, since after Close
// another engine may fill that slab.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		if e.cfg.Depth > 1 {
			close(e.start)
			close(e.work)
		}
		// A dead shard may have died holding a job, or halfway through
		// writing its slab: a poisoned engine gives nothing back.
		if err, _ := e.shardErr.Load().(error); err == nil {
			e.giveSlabs()
		}
	})
}

// giveSlabs gives the slab of every job on the free list to the next
// engine of its geometry, and drops the job. It takes only what it can
// without blocking: a job missing from the free list may still be in
// flight, and its slab must never reach another engine.
func (e *Engine) giveSlabs() {
	for {
		select {
		case j := <-e.free:
			if j.slab != nil {
				giveSlab(j.slab)
			}
		default:
			return
		}
	}
}

// Run drives one stream through the pipeline and reports the number of
// stripes drained. See RunContext.
func (e *Engine) Run(src Source, dst Sink) (int, error) {
	return e.RunContext(context.Background(), src, dst)
}

// RunContext drives one stream through the pipeline: Source stripes are
// filled Depth ahead, computed across the worker shards, and drained
// strictly in stripe order. The first failure (lowest stripe index,
// whether from fill, compute or drain) stops intake, drains everything
// in flight, and is returned with the stripe index attached. Cancelling
// the context stops intake at the next stripe boundary and drains
// cleanly; ctx.Err() is returned unless an earlier-indexed stage
// failure takes precedence. After Run returns — error or not — the
// engine is reusable. A Depth-1 engine keeps the same contract with
// every stage on the calling goroutine.
func (e *Engine) RunContext(ctx context.Context, src Source, dst Sink) (int, error) {
	return e.run(ctx, 0, src, dst)
}

// run is RunContext with the stream's stripes numbered from first: the
// indices Next and Drain receive and errors name. A stream that reaches
// the engine in several runs (streamCoder) numbers each run's stripes
// from where the previous run ended.
func (e *Engine) run(ctx context.Context, first int, src Source, dst Sink) (int, error) {
	if e.closed.Load() {
		return 0, fmt.Errorf("pipeline: engine is closed")
	}
	if err, _ := e.shardErr.Load().(error); err != nil {
		return 0, fmt.Errorf("pipeline: %w: compute shard failed: %w", ErrEnginePoisoned, err)
	}
	e.src = src
	e.ctx = ctx
	e.first = first
	if e.cfg.Depth == 1 {
		j := <-e.free
		n, err := e.runInline(j.slab, dst)
		e.free <- j
		return n, err
	}
	_, e.shardFill = src.(ConcurrentSource)
	e.stop.Store(false)
	e.runStart.Store(time.Now().UnixNano())
	e.running.Store(true)
	defer e.running.Store(false)
	e.start <- struct{}{}

	var firstErr error
	done := ctx.Done()
	drained := 0
	// stopped: a Sink returned Stop, or a shard met a concurrent
	// source's end. Finish recycling the jobs in flight, no error.
	stopped := false
	for {
		var j *job
		select {
		case j = <-e.order:
		default:
			t0 := time.Now()
			j = <-e.order
			e.drainStall.Add(int64(time.Since(t0)))
		}
		if j == e.sentinel {
			break
		}
		var err error
		select {
		case err = <-j.done:
		default:
			t0 := time.Now()
			err = <-j.done
			e.drainStall.Add(int64(time.Since(t0)))
		}
		switch {
		case firstErr != nil || stopped:
		case err == errStreamEnd:
			// Every later index is past the end too: drain none of them.
			stopped = true
			e.stop.Store(true)
		case err != nil:
			firstErr = fmt.Errorf("pipeline: stripe %d: %w", j.idx, err)
			e.stop.Store(true)
		}
		if firstErr == nil && !stopped {
			select {
			case <-done:
				firstErr = ctx.Err()
				e.stop.Store(true)
			default:
			}
		}
		if firstErr == nil && !stopped {
			switch derr := drainSafe(dst, j.idx, j.st); {
			case derr == nil:
				drained++
				e.stripes.Add(1)
			case errors.Is(derr, Stop):
				// The sink is satisfied: this stripe still counts, the
				// rest of the stream is skipped without error.
				drained++
				e.stripes.Add(1)
				stopped = true
				e.stop.Store(true)
			default:
				firstErr = fmt.Errorf("pipeline: stripe %d: %w", j.idx, derr)
				e.stop.Store(true)
			}
		}
		j.st = nil // do not pin caller stripes across runs
		e.free <- j
	}
	if firstErr == nil && !stopped {
		// The fill stage may have stopped on cancellation before any
		// stripe reached the drain stage.
		select {
		case <-done:
			firstErr = ctx.Err()
		default:
		}
	}
	return drained, firstErr
}

// runInline is a Depth-1 engine's run: each stripe is filled, computed
// and drained in turn on the Run goroutine, through the same
// nextSafe/computeSafe/drainSafe calls as the staged path, so output
// order, the lowest-index error, Stop and cancellation at stripe
// boundaries all behave as they do there. Nothing waits on another stage, so no stall
// is counted.
//
//ppm:hotpath
func (e *Engine) runInline(slab *stripe.Stripe, dst Sink) (int, error) {
	done := e.ctx.Done()
	for idx := e.first; ; idx++ {
		select {
		case <-done:
			return idx - e.first, e.ctx.Err()
		default:
		}
		st, err := e.nextSafe(idx, slab)
		if err == nil && st == nil {
			return idx - e.first, nil
		}
		if err == nil {
			err = e.computeSafe(idx, st)
		}
		if err == nil {
			switch err = drainSafe(dst, idx, st); {
			case err == nil:
				e.stripes.Add(1)
				continue
			case errors.Is(err, Stop):
				// The sink is satisfied: this stripe still counts.
				e.stripes.Add(1)
				return idx + 1 - e.first, nil
			}
		}
		//ppm:allow(hotalloc) failure path: the run ends here, so the wrap allocates once per failed run
		return idx - e.first, fmt.Errorf("pipeline: stripe %d: %w", idx, err)
	}
}

// fillLoop is the persistent fill stage: one iteration per Run.
func (e *Engine) fillLoop() {
	for range e.start {
		e.fillOne()
	}
}

// fillOne pulls free jobs, asks the Source for stripes in index order,
// and hands them to compute and (in order) to the drain stage. For a
// concurrent source it hands out the indices alone, and the shards
// fill. It stops on end-of-stream, source error, context cancellation,
// or the stop flag (set by the drain stage on failure, Stop or a
// concurrent source's end), then posts the sentinel.
//
//ppm:hotpath
func (e *Engine) fillOne() {
	done := e.ctx.Done()
	for idx := e.first; ; idx++ {
		if e.stop.Load() {
			break
		}
		var j *job
		select {
		case j = <-e.free:
		case <-done:
			// Cancelled while every slab is in flight; the drain stage
			// observes ctx itself.
			j = nil
		default:
			// Blocking on the free list means compute + drain hold every
			// slab: the fill stage is stalled by its downstream.
			t0 := time.Now()
			select {
			case j = <-e.free:
			case <-done:
				j = nil
			}
			e.fillStall.Add(int64(time.Since(t0)))
		}
		if j == nil {
			break
		}
		if e.shardFill {
			// A job without a stripe: the shard fills it (computeLoop).
			j.idx, j.st = idx, nil
			e.work <- j
			e.order <- j
			continue
		}
		st, err := e.nextSafe(idx, j.slab)
		if err != nil {
			// A fill failure takes the job's error slot straight to the
			// drain stage; compute never sees it.
			j.idx, j.st = idx, nil
			j.done <- err
			e.order <- j
			break
		}
		if st == nil {
			e.free <- j // unused
			break
		}
		j.idx, j.st = idx, st
		e.work <- j
		e.order <- j
	}
	e.order <- e.sentinel
}

// computeLoop is one compute shard: it applies the compiled plan to
// stripes until Close, first filling the ones a concurrent source
// leaves to it. Once a run is stopping (error, Stop, cancellation or
// the end of a concurrent source), remaining stripes pass through
// unfilled and unprocessed — the drain stage discards their results
// anyway.
//
//ppm:hotpath
func (e *Engine) computeLoop() {
	for {
		var j *job
		var ok bool
		select {
		case j, ok = <-e.work:
		default:
			// Blocking on work while a run is active means the fill
			// stage (I/O) cannot keep the shards fed. Between-run idle
			// is excluded: stall time is clipped to the current run's
			// start, and not counted at all while no run is active.
			t0 := time.Now().UnixNano()
			j, ok = <-e.work
			if e.running.Load() {
				start := e.runStart.Load()
				if t0 > start {
					start = t0
				}
				if d := time.Now().UnixNano() - start; d > 0 {
					e.computeStall.Add(d)
				}
			}
		}
		if !ok {
			return
		}
		if e.stop.Load() {
			j.done <- nil
			continue
		}
		if j.st == nil {
			st, err := e.nextSafe(j.idx, j.slab)
			if err == nil && st == nil {
				err = errStreamEnd
			}
			if err != nil {
				j.done <- err
				continue
			}
			j.st = st
		}
		j.done <- e.computeSafe(j.idx, j.st)
	}
}

// nextSafe, computeSafe and drainSafe run one stage's call for stripe
// idx and turn a panic in it into that stripe's error, so the drain
// stage receives an outcome for every in-flight stripe and every job
// returns to the free list: a panicking Source, plan or Sink can fail
// its Run but never wedge the engine or kill the process.
func (e *Engine) nextSafe(idx int, slab *stripe.Stripe) (st *stripe.Stripe, err error) {
	defer recoverStripe("source", idx, &err)
	return e.src.Next(idx, slab)
}

func (e *Engine) computeSafe(idx int, st *stripe.Stripe) (err error) {
	defer recoverStripe("compute", idx, &err)
	return e.compute(idx, st)
}

func drainSafe(dst Sink, idx int, st *stripe.Stripe) (err error) {
	defer recoverStripe("sink", idx, &err)
	return dst.Drain(idx, st)
}

// recoverStripe, deferred by a stage call, sets *err to the panic the
// call raised for stripe idx, if any.
func recoverStripe(stage string, idx int, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%s stripe %d panicked: %v", stage, idx, r)
	}
}

func (e *Engine) compute(idx int, st *stripe.Stripe) error {
	if e.testDelay != nil {
		e.testDelay(idx)
	}
	if e.testFail != nil {
		if err := e.testFail(idx); err != nil {
			return err
		}
	}
	if e.plan == nil {
		return nil
	}
	return e.dec.DecodeWithPlan(e.plan, st)
}

// Serial runs one stream through a Depth-1 engine built for the call:
// fill, compute and drain strictly in sequence on the calling goroutine
// with no overlap, the plan compiled once. It is the single-goroutine
// reference the tests check the staged engine's outputs and overlap
// against. The stripe count and Source/Sink contracts match Run's.
func Serial(c codes.Code, sc codes.Scenario, sectorSize int, cfg Config, src Source, dst Sink) (int, error) {
	cfg.Depth = 1
	e, err := New(c, sc, sectorSize, cfg)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	return e.Run(src, dst)
}
