// Package workload simulates read traffic against a degraded
// erasure-coded volume — the cloud scenario motivating LRC in the
// paper's introduction: transient unavailability turns reads of lost
// blocks into reconstructions, and the reconstruction width decides the
// degraded-read latency. Reads of healthy sectors are served directly;
// reads of lost sectors run a minimal-read repair plan that
// materialises only the requested sector (one local group for LRC, one
// stripe row for an SD disk failure, k blocks for RS).
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ppm/internal/codes"
	"ppm/internal/decode"
	"ppm/internal/kernel"
	"ppm/internal/repair"
	"ppm/internal/stripe"
)

// Read is one request: a sector of a stripe.
type Read struct {
	StripeIdx int
	Sector    int
}

// UniformTrace draws reads uniformly over stripes and sectors.
func UniformTrace(numStripes, sectors, reads int, seed int64) []Read {
	rng := rand.New(rand.NewSource(seed))
	trace := make([]Read, reads)
	for i := range trace {
		trace[i] = Read{StripeIdx: rng.Intn(numStripes), Sector: rng.Intn(sectors)}
	}
	return trace
}

// ZipfTrace skews reads toward hot stripes (s = 1.2), the access
// pattern behind popularity-based reconstruction schedulers (PRO, §V).
func ZipfTrace(numStripes, sectors, reads int, seed int64) []Read {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(numStripes-1))
	trace := make([]Read, reads)
	for i := range trace {
		trace[i] = Read{StripeIdx: int(z.Uint64()), Sector: rng.Intn(sectors)}
	}
	return trace
}

// LatencyStats summarises a latency sample.
type LatencyStats struct {
	Count            int
	Mean, P50, P99   time.Duration
	Max              time.Duration
	MultXORsPerOp    float64
	BytesServedTotal int64
}

// Result is one simulation's outcome.
type Result struct {
	Reads    int
	Degraded int
	Healthy  LatencyStats
	Repair   LatencyStats
}

// String renders a compact report.
func (r Result) String() string {
	return fmt.Sprintf("reads=%d degraded=%d | healthy p50=%v p99=%v | degraded p50=%v p99=%v mean=%v ops/read=%.1f",
		r.Reads, r.Degraded,
		r.Healthy.P50, r.Healthy.P99,
		r.Repair.P50, r.Repair.P99, r.Repair.Mean, r.Repair.MultXORsPerOp)
}

// Volume is the simulated degraded store: encoded stripes plus the
// standing failure scenario (the same disks fail in every stripe). The
// repair planner caches one plan per faulty sector, so a degraded read
// pays only for executing its plan.
type Volume struct {
	stripes  []*stripe.Stripe
	scenario codes.Scenario
	faulty   map[int]bool
	planner  *repair.Planner
	stats    *kernel.Stats
}

// NewVolume builds numStripes encoded stripes and marks the given disks
// failed (transiently unavailable — nothing is repaired in place).
func NewVolume(c codes.Code, numStripes, sectorSize int, failedDisks []int, seed int64) (*Volume, error) {
	if numStripes < 1 {
		return nil, fmt.Errorf("workload: need at least one stripe")
	}
	var faultySectors []int
	for _, d := range failedDisks {
		if d < 0 || d >= c.NumStrips() {
			return nil, fmt.Errorf("workload: disk %d out of range", d)
		}
		for i := 0; i < c.NumRows(); i++ {
			faultySectors = append(faultySectors, i*c.NumStrips()+d)
		}
	}
	sc, err := codes.NewScenario(c, faultySectors)
	if err != nil {
		return nil, err
	}
	v := &Volume{
		scenario: sc,
		faulty:   sc.FaultySet(),
		planner:  repair.NewPlanner(c, repair.WithCacheSize(len(sc.Faulty))),
		stats:    &kernel.Stats{},
	}
	for i := 0; i < numStripes; i++ {
		st, err := stripe.New(c.NumStrips(), c.NumRows(), sectorSize)
		if err != nil {
			return nil, err
		}
		st.FillDataRandom(seed+int64(i), codes.DataPositions(c))
		if err := decode.Encode(c, st, decode.Options{}); err != nil {
			return nil, err
		}
		// Transient unavailability: the lost sectors read as garbage.
		st.Scribble(seed+int64(1000+i), sc.Faulty)
		v.stripes = append(v.stripes, st)
	}
	// Plan every faulty sector's read up front: an unrecoverable pattern
	// fails here, and no timed read pays for planning.
	for _, f := range sc.Faulty {
		if _, err := v.planner.Plan(sc, []int{f}); err != nil {
			return nil, fmt.Errorf("workload: failure pattern unrecoverable: %w", err)
		}
	}
	return v, nil
}

// Serve runs the trace and collects per-class latencies. Each degraded
// read reconstructs only the requested sector's closure into the stripe
// and then re-loses it (stop-the-clock), so every request pays the full
// reconstruction cost, as in a system that does not persist repairs.
func (v *Volume) Serve(trace []Read) (Result, error) {
	var res Result
	buf := make([]byte, v.stripes[0].SectorSize())
	var healthyLat, repairLat []time.Duration
	var repairOps int64

	for _, rd := range trace {
		if rd.StripeIdx < 0 || rd.StripeIdx >= len(v.stripes) {
			return res, fmt.Errorf("workload: stripe %d out of range", rd.StripeIdx)
		}
		st := v.stripes[rd.StripeIdx]
		if rd.Sector < 0 || rd.Sector >= st.TotalSectors() {
			return res, fmt.Errorf("workload: sector %d out of range", rd.Sector)
		}
		res.Reads++
		if !v.faulty[rd.Sector] {
			start := time.Now()
			copy(buf, st.Sector(rd.Sector))
			healthyLat = append(healthyLat, time.Since(start))
			continue
		}
		res.Degraded++
		before := v.stats.MultXORs()
		start := time.Now()
		plan, err := v.planner.Plan(v.scenario, []int{rd.Sector})
		if err != nil {
			return res, err
		}
		if err := plan.Execute(st, v.stats); err != nil {
			return res, err
		}
		copy(buf, st.Sector(rd.Sector))
		repairLat = append(repairLat, time.Since(start))
		repairOps += v.stats.MultXORs() - before
		// Re-lose the recovered sectors: the unavailability is transient
		// but not repaired by reads.
		st.Scribble(int64(res.Reads), v.scenario.Faulty)
	}

	res.Healthy = summarise(healthyLat, 0, int64(len(healthyLat))*int64(len(buf)))
	res.Repair = summarise(repairLat, repairOps, int64(len(repairLat))*int64(len(buf)))
	return res, nil
}

func summarise(lat []time.Duration, ops int64, bytes int64) LatencyStats {
	if len(lat) == 0 {
		return LatencyStats{}
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	pct := func(p float64) time.Duration {
		idx := int(p * float64(len(sorted)-1))
		return sorted[idx]
	}
	return LatencyStats{
		Count:            len(sorted),
		Mean:             sum / time.Duration(len(sorted)),
		P50:              pct(0.50),
		P99:              pct(0.99),
		Max:              sorted[len(sorted)-1],
		MultXORsPerOp:    float64(ops) / float64(len(sorted)),
		BytesServedTotal: bytes,
	}
}
