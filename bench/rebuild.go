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

// rebuild streams a degraded SD^{2,2}_{16,16} image at GF(2^16) through
// one pipeline engine, pass after pass, closed loop with one client: the
// paper's headline case. The worst-case scenario (2 disks + 2 sectors in
// one row, 34 faulty sectors) partitions into 15 independent row groups
// and a serial H_rest tail; the plan is compiled once, so the kernels,
// the executor and the pipeline carry the load.
type rebuild struct {
	sc      codes.Scenario
	stripes []*stripe.Stripe
	golden  [][]uint32
	live    []int
	chosen  int64 // the plan's predicted mult_XORs per stripe

	code  *codes.SD
	eng   *pipeline.Engine
	stats *kernel.Stats
}

const (
	rebuildSector  = 16 << 10
	rebuildStripes = 32 // 128 MiB image
)

func newRebuildCode() (*codes.SD, error) { return codes.NewSD(16, 16, 2, 2) }

func (r *rebuild) describe() string {
	return fmt.Sprintf("%s, %d faulty sectors (2 disks + 2 sectors), %d KiB sectors, %d-stripe image (%d MiB) per pass; closed loop, 1 client",
		r.code.Name(), len(r.sc.Faulty), rebuildSector>>10, rebuildStripes, r.stripeBytes()*rebuildStripes>>20)
}

func (r *rebuild) stripeBytes() int { return codes.TotalSectors(r.code) * rebuildSector }

func (r *rebuild) fixture(seed int64) error {
	c, err := newRebuildCode()
	if err != nil {
		return err
	}
	if r.sc, err = c.WorstCaseScenario(rngFor(seed, 1), 1); err != nil {
		return err
	}
	if r.stripes, err = goldenStripes(c, rebuildSector, rebuildStripes, seed); err != nil {
		return err
	}
	r.golden = checksums(r.stripes)
	r.live = complement(codes.TotalSectors(c), r.sc.Faulty)
	plan, err := core.BuildPlan(c, r.sc, core.StrategyAuto)
	if err != nil {
		return err
	}
	r.chosen = plan.Costs.Chosen
	return nil
}

func (r *rebuild) setup() error {
	c, err := newRebuildCode()
	if err != nil {
		return err
	}
	r.code, r.stats = c, &kernel.Stats{}
	if r.eng, err = pipeline.New(c, r.sc, rebuildSector, pipeline.Config{Stats: r.stats}); err != nil {
		return err
	}
	bad, err := r.pass(nil, nil, 0, 0)
	if err == nil && bad > 0 {
		err = fmt.Errorf("cold pass: %d rebuilt sectors differ from golden", bad)
	}
	return err
}

func (r *rebuild) teardown() {
	if r.eng != nil {
		r.eng.Close()
		r.eng = nil
	}
}

func (r *rebuild) corruptGolden() { r.golden[0][r.sc.Faulty[0]] ^= 1 }

// pass rebuilds the whole image once and returns the number of rebuilt
// sectors that differ from golden.
func (r *rebuild) pass(tr *tracer, m *meter, t0 int64, req int32) (int64, error) {
	id := tr.begin(spRun, noSpan, req)
	src := &stripeSource{stripes: r.stripes, live: r.live, count: rebuildStripes, tr: tr, parent: id, req: req}
	sink := &crcSink{golden: r.golden, check: r.sc.Faulty, meter: m, t0: t0, bytes: int64(r.stripeBytes()), tr: tr, parent: id, req: req}
	_, err := r.eng.Run(src, sink)
	tr.end(id)
	return sink.bad, err
}

func (r *rebuild) measure(d time.Duration, tr *tracer, _ bool) *measured {
	out := &measured{}
	m := newMeter(d)
	before := r.eng.StageStats()
	r.stats.Reset()
	t0 := nowNs()
	last := t0
	for req := int32(0); nowNs()-t0 < int64(d); req++ {
		s := nowNs()
		out.late = max(out.late, s-last)
		bad, err := r.pass(tr, m, t0, req)
		last = nowNs()
		out.observe(last-s, tr != nil)
		out.attempted++
		switch {
		case err != nil:
			out.fail(err)
		case bad > 0:
			out.fail(fmt.Errorf("pass %d: %d rebuilt sectors differ from golden", req, bad))
		}
	}
	out.gbps = m.gbps(nowNs() - t0)
	after := r.eng.StageStats()
	stripes := after.Stripes - before.Stripes
	checkMultXORs(out, r.stats, stripes, r.chosen)
	out.layer = stallMetrics(before, after)
	out.layer["kernel.mult_xors_per_stripe"] = float64(r.stats.MultXORs()) / float64(max(stripes, 1))
	return out
}

// checkMultXORs fails the measurement unless the kernel.Stats count is
// exactly the plan's predicted cost for every stripe.
func checkMultXORs(out *measured, stats *kernel.Stats, stripes, chosen int64) {
	if got, want := stats.MultXORs(), stripes*chosen; got != want {
		out.attempted++
		out.fail(fmt.Errorf("kernel.Stats counted %d mult_XORs over %d stripes, the plan predicts %d", got, stripes, want))
	}
}

// stallMetrics converts a StageStats delta into the pipeline stall
// metrics, in seconds.
func stallMetrics(before, after pipeline.StageStats) map[string]float64 {
	return map[string]float64{
		"pipeline.fill_stall_s":    float64(after.FillStallNs-before.FillStallNs) / 1e9,
		"pipeline.compute_stall_s": float64(after.ComputeStallNs-before.ComputeStallNs) / 1e9,
		"pipeline.drain_stall_s":   float64(after.DrainStallNs-before.DrainStallNs) / 1e9,
	}
}

func (r *rebuild) replayCase() replayCase {
	return replayCase{
		code:    r.code,
		sc:      r.sc,
		sector:  rebuildSector,
		stripes: r.stripes[:replayStripes],
		golden:  r.golden[:replayStripes],
	}
}
