package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. The lists below must match
// BENCHMARK.json (bench_test.go checks it); the regression bounds live
// only there.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports for every workload.
// Their meaning per workload is in README.md. Latency percentiles are in
// the text report only: on a shared 2-vCPU host the open loops' p50
// moves by up to 35% and their p99 by up to 70% between runs, more than
// a regression bound can absorb, and the closed loops' p50 is the
// inverse of their gbps.
var endToEnd = []metricDef{
	{"gbps", "GB/s", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics a traced run reports for every workload.
var perLayer = []metricDef{
	{"gf.region_gbps", "GB/s", "higher"},
	{"kernel.apply_gbps.affine", "GB/s", "higher"},
	{"kernel.apply_gbps.table", "GB/s", "higher"},
	{"kernel.apply_gbps.xorplan", "GB/s", "higher"},
	{"kernel.efficiency", "ratio", "higher"},
	{"kernel.mult_xors_per_stripe", "count", "lower"},
	{"kernel.bytes_moved_per_stripe", "bytes", "lower"},
	{"core.execute_us", "us", "lower"},
	{"core.group_share", "fraction", "higher"},
	{"core.rest_share", "fraction", "lower"},
	{"core.model_efficiency", "ratio", "higher"},
	{"core.speedup_vs_traditional", "ratio", "higher"},
	{"core.plan_build_ms", "ms", "lower"},
	{"core.update_us", "us", "lower"},
	{"repair.plan_hit_us", "us", "lower"},
	{"repair.plan_miss_us", "us", "lower"},
	{"repair.cache_hit_ratio", "fraction", "higher"},
	{"repair.execute_us", "us", "lower"},
	{"repair.read_fraction", "fraction", "lower"},
	{"fault.read_sectors_self_us", "us", "lower"},
	{"fault.store_read_us", "us", "lower"},
	{"fault.store_write_us", "us", "lower"},
	{"fault.strips_read_per_op", "count", "lower"},
	{"fault.replans", "count", "lower"},
	{"fault.corrupt_sectors", "count", "lower"},
	{"pipeline.fill_share", "fraction", "lower"},
	{"pipeline.drain_share", "fraction", "lower"},
	{"pipeline.fill_stall_s", "s", "lower"},
	{"pipeline.compute_stall_s", "s", "lower"},
	{"pipeline.drain_stall_s", "s", "lower"},
	{"pipeline.engine_efficiency", "ratio", "higher"},
	{"pipeline.run_start_us", "us", "lower"},
	{"bench.late_ms", "ms", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
}

// metric is one reported value, as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// percentileNs returns the nearest-rank p-quantile (0 < p <= 1) of the
// samples, sorting them in place; 0 for no samples.
func percentileNs(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(math.Ceil(p*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

// median returns the median of xs without modifying it; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 of xs the way Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method),
// so spreads printed here match the ones the benchmark contract uses.
// With fewer than two values every quartile is the single value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := make([]float64, 3)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// meter sums the bytes completed in each 1 s window of a measurement.
// It is used from one goroutine at a time.
type meter struct {
	sums []int64
}

// newMeter returns a meter with room for a measurement of d.
func newMeter(d time.Duration) *meter {
	return &meter{sums: make([]int64, int(d/time.Second)+2)}
}

// add records b bytes completed at t nanoseconds after the measurement
// started.
func (m *meter) add(t, b int64) {
	if m == nil {
		return
	}
	if k := t / 1e9; k >= 0 && k < int64(len(m.sums)) {
		m.sums[k] += b
	}
}

// merge adds o's windows to m's.
func (m *meter) merge(o *meter) {
	if m == nil || o == nil {
		return
	}
	for k := range m.sums {
		if k < len(o.sums) {
			m.sums[k] += o.sums[k]
		}
	}
}

// gbps is the median over the whole 1 s windows before end, dropping
// the first as warm-up, in GB/s. A span too short for two windows
// reports its overall rate.
func (m *meter) gbps(end int64) float64 {
	n := min(int(end/1e9), len(m.sums))
	if n < 2 {
		total := int64(0)
		for _, b := range m.sums {
			total += b
		}
		return float64(total) / float64(max(end, 1))
	}
	rates := make([]float64, n-1)
	for k := range rates {
		rates[k] = float64(m.sums[k+1])
	}
	return median(rates) / 1e9
}
