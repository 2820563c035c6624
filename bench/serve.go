package main

import (
	"fmt"
	"time"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/kernel"
	"ppm/internal/pipeline"
	"ppm/internal/stripe"
)

// serve answers degraded GETs of whole objects through a pipeline.Pool
// of two engines, open loop: each request picks one of 16 objects of
// 16 MiB (32 stripes of SD^{2,2}_{8,16}, worst-case scenario) uniformly,
// so the data is cold in cache, and streams it through a checked-out
// engine. This exercises Pool checkout and the start and stop of a
// short Engine.Run per request, the costs rebuild amortises away.
type serve struct {
	seed    int64
	phaseNo int64
	sc      codes.Scenario
	objs    [][]*stripe.Stripe
	golden  [][][]uint32
	live    []int
	data    []int // data positions: a GET returns these
	chosen  int64

	code  *codes.SD
	pool  *pipeline.Pool
	stats *kernel.Stats

	// per phase
	objOf []int
	tr    *tracer
	srcs  [serveWorkers]stripeSource
	sinks [serveWorkers]crcSink
}

const (
	serveSector     = 4 << 10
	serveObjects    = 16
	serveObjStripes = 32
	serveWorkers    = 2
	serveNominal    = 250 // requests per second
	serveLimit      = 50 * time.Millisecond
)

// serveLadder is the rate ladder max_rps climbs, nominal first.
var serveLadder = []float64{serveNominal, 350, 500}

func newServeCode() (*codes.SD, error) { return codes.NewSD(8, 16, 2, 2) }

func (s *serve) describe() string {
	return fmt.Sprintf("%s, %d faulty sectors, %d objects of %d MiB (%d stripes, %d KiB sectors) read through a pipeline.Pool of %d engines; open loop, %d service goroutines, %d/s nominal, p99 limit %v",
		s.code.Name(), len(s.sc.Faulty), serveObjects, s.objBytes()>>20, serveObjStripes, serveSector>>10, serveWorkers, serveWorkers, serveNominal, serveLimit)
}

func (s *serve) objBytes() int { return serveObjStripes * codes.TotalSectors(s.code) * serveSector }

// getBytes is the payload one GET returns.
func (s *serve) getBytes() int64 { return int64(serveObjStripes * len(s.data) * serveSector) }

func (s *serve) fixture(seed int64) error {
	c, err := newServeCode()
	if err != nil {
		return err
	}
	s.seed = seed
	if s.sc, err = c.WorstCaseScenario(rngFor(seed, 1), 1); err != nil {
		return err
	}
	for o := 0; o < serveObjects; o++ {
		sts, err := goldenStripes(c, serveSector, serveObjStripes, seed*serveObjects+int64(o))
		if err != nil {
			return err
		}
		s.objs = append(s.objs, sts)
		s.golden = append(s.golden, checksums(sts))
	}
	s.live = complement(codes.TotalSectors(c), s.sc.Faulty)
	s.data = codes.DataPositions(c)
	plan, err := core.BuildPlan(c, s.sc, core.StrategyAuto)
	if err != nil {
		return err
	}
	s.chosen = plan.Costs.Chosen
	return nil
}

func (s *serve) setup() error {
	c, err := newServeCode()
	if err != nil {
		return err
	}
	s.code, s.stats = c, &kernel.Stats{}
	if s.pool, err = pipeline.NewPool(c, s.sc, serveSector, serveWorkers, pipeline.Config{Stats: s.stats}); err != nil {
		return err
	}
	// The cold GET checks every data sector it returns; later GETs check
	// the sectors the decoder rebuilds.
	bad, err := s.get(0, 0, nil, 0, s.data)
	if err == nil && bad > 0 {
		err = fmt.Errorf("cold GET: %d sectors differ from golden", bad)
	}
	return err
}

func (s *serve) teardown() {
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
}

func (s *serve) corruptGolden() {
	for o := range s.golden {
		s.golden[o][0][s.sc.Faulty[0]] ^= 1
	}
}

// get streams object obj through the pool on worker w and returns the
// number of checked sectors that differ from golden.
func (s *serve) get(w, obj int, tr *tracer, req int32, check []int) (int64, error) {
	id := tr.begin(spRequest, noSpan, req)
	rid := tr.begin(spRun, id, req)
	src, sink := &s.srcs[w], &s.sinks[w]
	*src = stripeSource{stripes: s.objs[obj], live: s.live, count: serveObjStripes, tr: tr, parent: rid, req: req}
	*sink = crcSink{golden: s.golden[obj], check: check, tr: tr, parent: rid, req: req}
	n, err := s.pool.Run(src, sink)
	tr.end(rid)
	tr.end(id)
	if err == nil && n != serveObjStripes {
		err = fmt.Errorf("GET of object %d returned %d stripes, want %d", obj, n, serveObjStripes)
	}
	return sink.bad, err
}

func (s *serve) key(int) (int, bool) { return -1, false }

func (s *serve) serve(w, i int) error {
	bad, err := s.get(w, s.objOf[i], s.tr, int32(i), s.sc.Faulty)
	if err == nil && bad > 0 {
		err = fmt.Errorf("GET %d (object %d): %d rebuilt sectors differ from golden", i, s.objOf[i], bad)
	}
	return err
}

// phase drives one rate step (rate > 0) or the closed-loop capacity
// phase (rate 0) for d.
func (s *serve) phase(rate float64, d time.Duration, tr *tracer) *phase {
	s.phaseNo++
	rng := rngFor(s.seed, 100+s.phaseNo)
	var due []int64
	n := int(d.Seconds()*2000) + 64 // capacity phase: far above what two engines serve
	if rate > 0 {
		due = schedule(rng, rate, d)
		n = len(due)
	}
	s.objOf = make([]int, n)
	for i := range s.objOf {
		s.objOf[i] = rng.Intn(serveObjects)
	}
	s.tr = tr
	return drive(serveWorkers, n, due, d, s)
}

func (s *serve) measure(d time.Duration, tr *tracer, nominalOnly bool) *measured {
	before := s.pool.StageStats()
	s.stats.Reset()
	out := openLoop(s, d, tr, 1, nominalOnly, serveLadder, serveLimit, s.getBytes())
	after := s.pool.StageStats()
	checkMultXORs(out, s.stats, after.Stripes-before.Stripes, s.chosen)
	out.layer = stallMetrics(before, after)
	out.layer["kernel.mult_xors_per_stripe"] = float64(s.stats.MultXORs()) / float64(max(after.Stripes-before.Stripes, 1))
	return out
}

func (s *serve) replayCase() replayCase {
	return replayCase{
		code:    s.code,
		sc:      s.sc,
		sector:  serveSector,
		stripes: s.objs[0][:replayStripes],
		golden:  s.golden[0][:replayStripes],
	}
}
