package main

import (
	"context"
	"fmt"
	"time"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/decode"
	"ppm/internal/fault"
	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/pipeline"
	"ppm/internal/repair"
	"ppm/internal/stripe"
)

// The layer replay runs a workload's own code, failure scenario, sector
// size and data through each layer's exported functions, bottom up: a
// gf region op, the plan's sub-decode matrices on each kernel backend,
// core.Execute against the traditional decode, plan building, the
// delta updater, the repair planner and plan, a checksummed Healer over
// a MemStore, and a pipeline Engine against a serial loop. Every layer
// is measured on every workload, so a traced run reports each per-layer
// metric even for a layer its workload does not call.

// replayStripes is how many golden stripes a replay case carries.
const replayStripes = 4

// replayBudget bounds the time one replay measurement repeats for.
const replayBudget = 100 * time.Millisecond

// replayCase is the input of the layer replay.
type replayCase struct {
	code    codes.Code
	sc      codes.Scenario
	sector  int
	stripes []*stripe.Stripe // golden, encoded; never modified
	golden  [][]uint32       // their sector checksums
	// plannerSeq is the sequence of wanted sets driven through one
	// repair.Planner for its cache hit ratio; nil uses every faulty
	// sector, twice.
	plannerSeq [][]int
}

// timeCall returns the median nanoseconds of one fn call: calls are
// batched so a sample lasts at least 20 µs, and samples repeat for
// replayBudget (at least 7 of them).
func timeCall(fn func()) float64 {
	fn()
	batch := 1
	for {
		t0 := nowNs()
		for i := 0; i < batch; i++ {
			fn()
		}
		if nowNs()-t0 >= 20_000 || batch >= 1<<16 {
			break
		}
		batch *= 2
	}
	var samples []float64
	deadline := nowNs() + int64(replayBudget)
	for len(samples) < 7 || (nowNs() < deadline && len(samples) < 2001) {
		t0 := nowNs()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples = append(samples, float64(nowNs()-t0)/float64(batch))
	}
	return median(samples)
}

// compiledSub is one plan sub-decode compiled under the current kernel
// backend, with its stripe views prepared.
type compiledSub struct {
	finv, s, g *kernel.CompiledMatrix
	seq        kernel.Sequence
	in, out    [][]byte
	nnz        int
}

func compileSub(f gf.Field, sd *core.SubDecode, st *stripe.Stripe) *compiledSub {
	c := &compiledSub{seq: sd.Seq, in: st.Sectors(sd.SurvivorCols), out: st.Sectors(sd.FaultyCols)}
	if sd.Seq == kernel.MatrixFirst {
		c.g = kernel.Compile(f, sd.G)
		c.nnz = c.g.NNZ()
	} else {
		c.finv, c.s = kernel.Compile(f, sd.Finv), kernel.Compile(f, sd.S)
		c.nnz = c.finv.NNZ() + c.s.NNZ()
	}
	return c
}

func (c *compiledSub) apply() {
	kernel.CompiledProduct(c.finv, c.s, c.g, c.in, c.out, nil, c.seq, nil)
}

// planParts splits a plan into its parallel group phase and its serial
// part (the H_rest tail, or the whole-matrix decode).
func planParts(p *core.Plan) (groups, serial []*core.SubDecode) {
	for i := range p.Groups {
		groups = append(groups, &p.Groups[i])
	}
	if p.Rest != nil {
		serial = append(serial, p.Rest)
	}
	if p.Whole != nil {
		serial = append(serial, &p.Whole.SubDecode)
	}
	return groups, serial
}

// firstWanted is the sector the repair and healer replays recover: the
// first faulty data sector, else the first faulty sector.
func firstWanted(c codes.Code, sc codes.Scenario) int {
	parity := map[int]bool{}
	for _, p := range c.ParityPositions() {
		parity[p] = true
	}
	for _, f := range sc.Faulty {
		if !parity[f] {
			return f
		}
	}
	return sc.Faulty[0]
}

// sectorsMatch counts the listed sectors of st that differ from sums.
func sectorsMatch(st *stripe.Stripe, sums []uint32, list []int) int64 {
	bad := int64(0)
	for _, p := range list {
		if fault.ChecksumSector(st.Sector(p)) != sums[p] {
			bad++
		}
	}
	return bad
}

// regionCoefficient is a fixed multiplier with no special-cased value
// (not 0 or 1), masked to the field.
func regionCoefficient(f gf.Field) uint32 {
	return uint32(0x8e3d5a17 & (f.Order() - 1))
}

// replayLayers measures every layer on the replay case. Output checks
// are counted in m; an error means a layer could not run at all.
func replayLayers(rc replayCase, tr *tracer, m *measured) (map[string]float64, error) {
	out := map[string]float64{}
	c, sc, S := rc.code, rc.sc, rc.sector
	f := c.Field()
	plan, err := core.BuildPlan(c, sc, core.StrategyAuto)
	if err != nil {
		return nil, err
	}
	check := func(what string, bad int64) {
		m.attempted++
		if bad > 0 {
			m.fail(fmt.Errorf("replay %s: %d sectors differ from golden", what, bad))
		}
	}
	stepSpan := func() int32 { return tr.begin(spReplay, noSpan, -1) }

	// gf: one region op at the workload's word and sector size, through
	// the multiplier the kernels compile their rows from (GF(2^8)'s
	// Field.MultXORs is the scalar reference loop).
	id := stepSpan()
	src, dst := make([]byte, S), make([]byte, S)
	gen := prng(1)
	gen.fill(src)
	gen.fill(dst)
	mult := gf.MultiplierFor(f, regionCoefficient(f))
	regionGBps := float64(S) / timeCall(func() { mult.MultXOR(dst, src) })
	out["gf.region_gbps"] = regionGBps
	tr.end(id)

	// kernel: the plan's sub-decodes recompiled under each backend.
	id = stepSpan()
	groups, serial := planParts(plan)
	st := rc.stripes[0].Clone()
	active := activeBackend()
	prevAffine := gf.AffineKernels()
	prevMode := kernel.SetXorplanMode(kernel.XorplanOff)
	var groupNs, serialNs float64
	moved := 0
	for _, b := range []struct {
		name   string
		affine bool
		mode   kernel.XorplanMode
	}{
		{"affine", true, kernel.XorplanOff},
		{"table", false, kernel.XorplanOff},
		{"xorplan", prevAffine, kernel.XorplanOn},
	} {
		gf.SetAffineKernels(b.affine)
		kernel.SetXorplanMode(b.mode)
		var gs, ss []*compiledSub
		nnz := 0
		moved = 0
		for _, sd := range groups {
			gs = append(gs, compileSub(f, sd, st))
		}
		for _, sd := range serial {
			ss = append(ss, compileSub(f, sd, st))
		}
		for _, cs := range append(append([]*compiledSub(nil), gs...), ss...) {
			nnz += cs.nnz
			moved += (len(cs.in) + len(cs.out)) * S
		}
		st.Erase(sc.Faulty)
		applyAll := func(list []*compiledSub) func() {
			return func() {
				for _, cs := range list {
					cs.apply()
				}
			}
		}
		ns := timeCall(func() { applyAll(gs)(); applyAll(ss)() })
		out["kernel.apply_gbps."+b.name] = float64(nnz*S) / ns
		check("kernel "+b.name, sectorsMatch(st, rc.golden[0], sc.Faulty))
		if b.name == active {
			if len(gs) > 0 {
				groupNs = timeCall(applyAll(gs))
			}
			if len(ss) > 0 {
				serialNs = timeCall(applyAll(ss))
			}
		}
	}
	gf.SetAffineKernels(prevAffine)
	kernel.SetXorplanMode(prevMode)
	out["kernel.efficiency"] = out["kernel.apply_gbps."+active] / regionGBps
	out["kernel.mult_xors_per_stripe"] = float64(plan.Costs.Chosen)
	out["kernel.bytes_moved_per_stripe"] = float64(moved)
	tr.end(id)

	// core: the PPM executor against the traditional decode.
	id = stepSpan()
	var execErr error
	st.Erase(sc.Faulty)
	execNs := timeCall(func() { execErr = core.Execute(plan, st, f, 1, nil) })
	if execErr != nil {
		return nil, fmt.Errorf("core.Execute: %w", execErr)
	}
	check("core.Execute", sectorsMatch(st, rc.golden[0], sc.Faulty))
	out["core.execute_us"] = execNs / 1e3
	out["core.group_share"] = groupNs / (groupNs + serialNs)
	out["core.rest_share"] = serialNs / (groupNs + serialNs)
	out["core.model_efficiency"] = float64(plan.Costs.Chosen) * float64(S) / regionGBps / execNs
	var tradErr error
	st.Erase(sc.Faulty)
	tradNs := timeCall(func() { tradErr = decode.Decode(c, st, sc, decode.Options{}) })
	if tradErr != nil {
		return nil, fmt.Errorf("decode.Decode: %w", tradErr)
	}
	check("decode.Decode", sectorsMatch(st, rc.golden[0], sc.Faulty))
	out["core.speedup_vs_traditional"] = tradNs / execNs
	out["core.plan_build_ms"] = timeCall(func() { _, execErr = core.BuildPlan(c, sc, core.StrategyAuto) }) / 1e6
	if execErr != nil {
		return nil, fmt.Errorf("core.BuildPlan: %w", execErr)
	}
	u, err := core.NewUpdater(c)
	if err != nil {
		return nil, err
	}
	ust := rc.stripes[0].Clone()
	content := make([]byte, S)
	gen.fill(content)
	d := u.DataSectors()[0]
	for i, deadline := 0, nowNs()+int64(replayBudget); i < 16 || nowNs() < deadline; i++ {
		uid := tr.begin(spUpdate, id, -1)
		err := u.UpdateRange(ust, d, content, 0, S, nil)
		tr.end(uid)
		if err != nil {
			return nil, fmt.Errorf("core.Updater.UpdateRange: %w", err)
		}
	}
	tr.end(id)

	// repair: planning with and without the cache, and one plan.
	id = stepSpan()
	wanted := []int{firstWanted(c, sc)}
	var miss []float64
	for k := 0; k < 7; k++ {
		p := repair.NewPlanner(c)
		t0 := nowNs()
		if _, err := p.Plan(sc, wanted); err != nil {
			return nil, fmt.Errorf("repair.Planner.Plan: %w", err)
		}
		miss = append(miss, float64(nowNs()-t0))
	}
	out["repair.plan_miss_us"] = median(miss) / 1e3
	planner := repair.NewPlanner(c)
	rp, err := planner.Plan(sc, wanted)
	if err != nil {
		return nil, err
	}
	out["repair.plan_hit_us"] = timeCall(func() { _, execErr = planner.Plan(sc, wanted) }) / 1e3
	rst := rc.stripes[0].Clone()
	rst.Erase(rp.Wanted)
	out["repair.execute_us"] = timeCall(func() { execErr = rp.Execute(rst, nil) }) / 1e3
	if execErr != nil {
		return nil, fmt.Errorf("repair.Plan.Execute: %w", execErr)
	}
	check("repair.Plan.Execute", sectorsMatch(rst, rc.golden[0], rp.Wanted))
	out["repair.read_fraction"] = rp.Cost.ReadFraction()
	seq := rc.plannerSeq
	if seq == nil {
		for k := 0; k < 2; k++ {
			for _, s := range sc.Faulty {
				seq = append(seq, []int{s})
			}
		}
	}
	hp := repair.NewPlanner(c)
	for _, w := range seq {
		if _, err := hp.Plan(sc, w); err != nil {
			return nil, fmt.Errorf("repair.Planner.Plan: %w", err)
		}
	}
	hits, misses := hp.CacheStats()
	out["repair.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	tr.end(id)

	// fault: checksummed degraded reads over a MemStore of the stripes.
	if err := replayHealer(rc, tr, wanted, out, check); err != nil {
		return nil, err
	}

	// pipeline: an Engine against the serial loop over the same stream.
	if err := replayPipeline(rc, plan, tr, out, check); err != nil {
		return nil, err
	}
	return out, nil
}

// replayHeals is how many degraded reads the healer replay makes.
const replayHeals = 64

func replayHealer(rc replayCase, tr *tracer, wanted []int, out map[string]float64, check func(string, int64)) error {
	id := tr.begin(spReplay, noSpan, -1)
	defer tr.end(id)
	c, S := rc.code, rc.sector
	n, r := c.NumStrips(), c.NumRows()
	ms := fault.NewMemStore(n, r*S)
	ts := &timedStore{Store: ms, tr: tr, parent: id, req: -1}
	for idx := len(rc.stripes) - 1; idx >= 0; idx-- {
		if err := fault.StoreStripe(ts, idx, rc.stripes[idx]); err != nil {
			return err
		}
	}
	for _, disk := range rc.sc.FailedDisks {
		ms.Lose(disk)
	}
	h := &fault.Healer{Code: c, Store: ts, Sums: rc.golden, Baseline: rc.sc}
	st, err := stripe.New(n, r, S)
	if err != nil {
		return err
	}
	for i := 0; i < replayHeals; i++ {
		idx := i % len(rc.stripes)
		st.Erase(wanted)
		rid := tr.begin(spReadSectors, id, -1)
		ts.parent = rid
		err := h.ReadSectors(context.Background(), idx, st, wanted)
		tr.end(rid)
		if err != nil {
			return fmt.Errorf("fault.Healer.ReadSectors: %w", err)
		}
		check("fault.Healer.ReadSectors", sectorsMatch(st, rc.golden[idx], wanted))
	}
	out["fault.strips_read_per_op"] = float64(h.Stats.StripsRead) / replayHeals
	out["fault.replans"] = float64(h.Stats.Replans)
	out["fault.corrupt_sectors"] = float64(h.Stats.CorruptSectors)
	return nil
}

func replayPipeline(rc replayCase, plan *core.Plan, tr *tracer, out map[string]float64, check func(string, int64)) error {
	id := tr.begin(spReplay, noSpan, -1)
	defer tr.end(id)
	c, sc, S := rc.code, rc.sc, rc.sector
	eng, err := pipeline.New(c, sc, S, pipeline.Config{})
	if err != nil {
		return err
	}
	defer eng.Close()
	stripeBytes := codes.TotalSectors(c) * S
	count := max(16, (32<<20)/stripeBytes)
	live := complement(codes.TotalSectors(c), sc.Faulty)
	run := func(t *tracer) (float64, error) {
		rid := t.begin(spRun, noSpan, -1)
		src := &stripeSource{stripes: rc.stripes, live: live, count: count, tr: t, parent: rid, req: -1}
		sink := &crcSink{golden: rc.golden, check: sc.Faulty, tr: t, parent: rid, req: -1}
		t0 := nowNs()
		_, err := eng.Run(src, sink)
		ns := float64(nowNs() - t0)
		t.end(rid)
		check("pipeline.Engine.Run", sink.bad)
		return ns, err
	}
	var engine []float64
	for k := 0; k < 6; k++ {
		ns, err := run(nil)
		if err != nil {
			return fmt.Errorf("pipeline.Engine.Run: %w", err)
		}
		if k > 0 { // the first run warms the slabs
			engine = append(engine, ns)
		}
	}
	before := eng.StageStats()
	for k := 0; k < 3; k++ {
		if _, err := run(tr); err != nil {
			return fmt.Errorf("pipeline.Engine.Run: %w", err)
		}
	}
	for k, v := range stallMetrics(before, eng.StageStats()) {
		out[k] = v
	}

	slab, err := stripe.New(c.NumStrips(), c.NumRows(), S)
	if err != nil {
		return err
	}
	var serialNs []float64
	for k := 0; k < 6; k++ {
		bad := int64(0)
		t0 := nowNs()
		for i := 0; i < count; i++ {
			src := rc.stripes[i%len(rc.stripes)]
			for _, p := range live {
				copy(slab.Sector(p), src.Sector(p))
			}
			if err := core.Execute(plan, slab, c.Field(), 1, nil); err != nil {
				return fmt.Errorf("core.Execute: %w", err)
			}
			bad += sectorsMatch(slab, rc.golden[i%len(rc.golden)], sc.Faulty)
		}
		if k > 0 {
			serialNs = append(serialNs, float64(nowNs()-t0))
		}
		check("serial loop", bad)
	}
	out["pipeline.engine_efficiency"] = median(serialNs) / median(engine)
	return nil
}
