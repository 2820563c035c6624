package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"ppm/internal/codes"
)

var errPoolClosed = errors.New("pipeline: pool is closed")

// Pool is a fixed set of independent engines for the same code +
// scenario pair, serving many concurrent streams: each RunContext
// checks an engine out, drives one stream, and returns it. One Engine
// serialises its runs, so concurrent request serving through a single
// engine queues head-to-tail; a pool overlaps up to Size streams —
// their store I/O always, and their compute too once the host has the
// cores. The plan is still compiled once per engine, at construction,
// never per stream.
//
// A pool whose streams already cover the cores gives its engines
// Depth 1 by default (see NewPool): each stream then runs on its
// caller's goroutine with one slab, and the concurrency comes from the
// streams. The trade-off is that such a pool, over a source that
// blocks per read, no longer overlaps one stream's fill with its
// drain; its other streams still overlap. Set Config.Depth >= 2 to
// keep per-stream overlap.
//
// A Pool is safe for concurrent RunContext calls. Close must not be
// called while streams are running (the Engine contract), and is
// idempotent.
//
//ppm:nocopy
type Pool struct {
	engines   chan *Engine
	closeOnce sync.Once

	// Build parameters, kept so a poisoned engine (shard death — see
	// ErrEnginePoisoned) can be replaced with a fresh one at its next
	// checkout instead of failing every stream routed to its slot.
	code       codes.Code
	sc         codes.Scenario
	sectorSize int
	cfg        Config

	// mu guards all and retired: checkout-time replacement swaps
	// engines while StageStats may be iterating.
	mu      sync.Mutex
	all     []*Engine
	retired StageStats // accumulated stats of replaced engines
}

// NewPool builds size engines (size <= 0 selects max(2, NumCPU))
// sharing one config. When the caller leaves cfg.Workers unset, the
// per-engine compute shards divide the host's cores across the pool
// instead of every engine starting a shard per core. When the caller
// leaves cfg.Depth unset too and the pool has at least one engine per
// core — exactly when the division leaves one shard per engine — the
// engines get Depth 1 and run each stream on its caller's goroutine,
// with no stage handoffs and one slab per engine instead of
// DefaultDepth. An explicit Depth or Workers keeps the staged engine.
func NewPool(c codes.Code, sc codes.Scenario, sectorSize, size int, cfg Config) (*Pool, error) {
	if size <= 0 {
		size = max(2, runtime.NumCPU())
	}
	if cfg.Workers <= 0 {
		budget := runtime.NumCPU()
		cfg.Workers = max(1, budget/size)
		if cfg.Depth <= 0 && size >= budget {
			cfg.Depth = 1
		}
	}
	p := &Pool{
		engines:    make(chan *Engine, size),
		all:        make([]*Engine, 0, size),
		code:       c,
		sc:         sc,
		sectorSize: sectorSize,
		cfg:        cfg,
	}
	for i := 0; i < size; i++ {
		e, err := New(c, sc, sectorSize, cfg)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("pipeline: pool engine %d: %w", i, err)
		}
		p.all = append(p.all, e)
		p.engines <- e
	}
	// Keep the fully resolved per-engine config (New fills the remaining
	// defaults) both for Config() and for rebuilding replacement engines
	// identically.
	p.cfg = p.all[0].cfg
	return p, nil
}

// Size returns the number of engines in the pool.
func (p *Pool) Size() int { return len(p.all) }

// Config returns the per-engine configuration the pool resolved at
// construction (after the worker-budget division).
func (p *Pool) Config() Config { return p.cfg }

// get checks an engine out, honouring ctx while every engine is busy.
// A poisoned or closed engine coming off the channel is replaced with a
// fresh build before it is handed out: a shard death costs one stream
// an error (the Run that observed it), never the slot.
//
//ppm:hotpath
func (p *Pool) get(ctx context.Context) (*Engine, error) {
	select {
	case e, ok := <-p.engines:
		if !ok {
			return nil, errPoolClosed
		}
		if e.Healthy() {
			return e, nil
		}
		return p.replace(e)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// replace retires a dead engine and builds its successor. On build
// failure the dead engine goes back on the channel — keeping the pool's
// capacity invariant (Size engines always circulating) — and the error
// surfaces to the caller; the next checkout retries the replacement.
func (p *Pool) replace(dead *Engine) (*Engine, error) {
	dead.Close()
	fresh, err := New(p.code, p.sc, p.sectorSize, p.cfg)
	if err != nil {
		p.engines <- dead
		return nil, fmt.Errorf("pipeline: pool engine replacement: %w", err)
	}
	p.mu.Lock()
	for i, e := range p.all {
		if e == dead {
			p.all[i] = fresh
			break
		}
	}
	p.retired.Add(dead.StageStats())
	p.mu.Unlock()
	return fresh, nil
}

// put returns a checked-out engine.
//
//ppm:hotpath
func (p *Pool) put(e *Engine) {
	p.engines <- e
}

// Run drives one stream through a checked-out engine. See RunContext.
func (p *Pool) Run(src Source, dst Sink) (int, error) {
	return p.RunContext(context.Background(), src, dst)
}

// RunContext checks an engine out (waiting, under ctx, while all Size
// engines are busy — the pool's admission bound), drives one stream
// through it with the Engine.RunContext contract, and returns the
// engine for the next stream.
func (p *Pool) RunContext(ctx context.Context, src Source, dst Sink) (int, error) {
	e, err := p.get(ctx)
	if err != nil {
		return 0, err
	}
	defer p.put(e)
	return e.RunContext(ctx, src, dst)
}

// StageStats aggregates the stall counters of every engine in the
// pool — the serving-level view: compute stall rising with stream
// count means the host is out of cores, fill/drain stall means the
// store is the bottleneck.
func (p *Pool) StageStats() StageStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.retired
	for _, e := range p.all {
		s.Add(e.StageStats())
	}
	return s
}

// Close closes every engine. Idempotent; must not race a RunContext.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		for _, e := range p.all {
			e.Close()
		}
		p.mu.Unlock()
		close(p.engines)
		// Drain the checked-in engines so a later get() sees the closed,
		// empty channel instead of checking out a dead engine.
		for range p.engines {
		}
	})
}
