package pipeline

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ppm/internal/codes"
)

// TestPoolScalingAcrossGOMAXPROCS is the multi-core scaling regression:
// aggregate pool throughput over latency-modelled streams must be
// monotone non-decreasing (within tolerance) as GOMAXPROCS grows
// through 1, 2 and NumCPU. The streams sleep per stripe on both edges,
// so even a single P overlaps store waits across engines; adding Ps
// must never make the aggregate slower. The 25% tolerance absorbs
// scheduler jitter — the defect this pins (workers silently capped by
// depth, pools serialising on one engine) loses far more than 25%.
// The levels alternate round by round (1, 2, 1, 2, …), so load from
// packages tested in parallel lands on every level alike rather than
// on one level's rounds.
func TestPoolScalingAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling matrix is wall-clock bound")
	}
	sd := testSD(t)

	var levels []int
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		if procs >= 1 && !slices.Contains(levels, procs) {
			levels = append(levels, procs)
		}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	const (
		streams    = 4
		perStream  = 12
		lat        = 1 * time.Millisecond
		iowait     = 2 * perStream * int64(lat) // serial store time per stream
		poolSize   = 4
		tolerance  = 0.75 // later level must reach 75% of earlier
		levelIters = 3    // best-of to shed scheduler noise
	)

	p, err := NewPool(sd, codes.EncodingScenario(sd), 512, poolSize, Config{Depth: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	best := make([]time.Duration, len(levels))
	for iter := 0; iter < levelIters; iter++ {
		for li, procs := range levels {
			runtime.GOMAXPROCS(procs)
			start := time.Now()
			var wg sync.WaitGroup
			for s := 0; s < streams; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					src := &sleepSource{count: perStream, d: lat}
					if _, err := p.Run(src, &sleepSink{d: lat}); err != nil {
						t.Errorf("stream: %v", err)
					}
				}()
			}
			wg.Wait()
			if d := time.Since(start); best[li] == 0 || d < best[li] {
				best[li] = d
			}
		}
	}
	if t.Failed() {
		t.Fatal("stream errors above")
	}

	var lastProcs int
	var lastThr float64
	for li, procs := range levels {
		thr := float64(streams*perStream) / best[li].Seconds()
		t.Logf("GOMAXPROCS=%d: %.0f stripes/s (best of %d, serial store floor %.0f)",
			procs, thr, levelIters, float64(streams*perStream)/(float64(streams)*float64(iowait)/1e9))
		if lastThr > 0 && thr < lastThr*tolerance {
			t.Errorf("throughput regressed with more cores: GOMAXPROCS=%d got %.0f stripes/s, GOMAXPROCS=%d had %.0f",
				procs, thr, lastProcs, lastThr)
		}
		lastProcs, lastThr = procs, thr
	}
}

// TestEngineOverlapsStoreLatency: the engine's reason to exist is
// hiding store latency behind compute and behind the other edge. With
// a 1 ms sleep on both the fill and the drain edge, the Serial loop
// pays both per stripe; an Engine at Depth 4 overlaps them, so it must
// finish at least 1.3x faster. Both sides are best of 3, run
// alternately (serial, engine, serial, …) so that load from packages
// tested in parallel lands on both alike. The sleeps bound the timing,
// not the host's speed, so the ratio sits near 2 with or without -race.
func TestEngineOverlapsStoreLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("overlap check is wall-clock bound")
	}
	sd := testSD(t)
	sc := codes.EncodingScenario(sd)
	const (
		stripes = 16
		lat     = 1 * time.Millisecond
		sector  = 512
		iters   = 3
		floor   = 1.3
	)
	e, err := New(sd, sc, sector, Config{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	round := func(best *time.Duration, run func() (int, error)) {
		start := time.Now()
		n, err := run()
		d := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if n != stripes {
			t.Fatalf("ran %d stripes, want %d", n, stripes)
		}
		if *best == 0 || d < *best {
			*best = d
		}
	}
	var serial, engine time.Duration
	for i := 0; i < iters; i++ {
		round(&serial, func() (int, error) {
			return Serial(sd, sc, sector, Config{}, &sleepSource{count: stripes, d: lat}, &sleepSink{d: lat})
		})
		round(&engine, func() (int, error) {
			return e.Run(&sleepSource{count: stripes, d: lat}, &sleepSink{d: lat})
		})
	}
	ratio := serial.Seconds() / engine.Seconds()
	t.Logf("serial %v, engine %v: %.2fx", serial, engine, ratio)
	if ratio < floor {
		t.Errorf("engine at Depth 4 is %.2fx the serial loop, want >= %.1fx", ratio, floor)
	}
}
