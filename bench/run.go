package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"time"

	"ppm/internal/fault"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// describe names the inputs and the load in one line.
	describe() string
	// fixture generates the seeded inputs. It is not timed.
	fixture(seed int64) error
	// setup builds the library objects and runs the first cold
	// operation; setup_s times it. Each call replaces what the previous
	// one built.
	setup() error
	// teardown releases what setup built.
	teardown()
	// corruptGolden damages one entry of the golden reference, so every
	// later check of it fails (tests use it).
	corruptGolden()
	// measure runs the load for d. nominalOnly restricts an open loop to
	// its nominal rate (traced runs). tr, when non-nil, records spans.
	measure(d time.Duration, tr *tracer, nominalOnly bool) *measured
	// replayCase is the workload's code, scenario and data for the
	// layer replay.
	replayCase() replayCase
}

// measured is what one measure call observed.
type measured struct {
	gbps      float64
	lat       []int64            // per-operation latency, ns
	classes   map[string][]int64 // the same, split by request class
	tracedLat []int64            // latency of the operations that recorded spans
	attempted int64
	failed    int64
	firstErr  error
	late      int64 // ns; see phase.late
	steps     []stepResult
	maxRPS    float64
	// layer holds per-layer values the workload measured on its own
	// calls; they take precedence over the replay's.
	layer map[string]float64
}

func (m *measured) fail(err error) {
	m.failed++
	if m.firstErr == nil {
		m.firstErr = err
	}
}

// absorb adds a driven phase's outcome to m.
func (m *measured) absorb(p *phase) {
	m.attempted += int64(p.n)
	m.failed += p.failed + p.dropped
	if m.firstErr == nil {
		m.firstErr = p.firstErr
	}
}

// printLatency prints the sample count, p50 and p99 of lat (ns).
func printLatency(out io.Writer, label string, lat []int64) {
	fmt.Fprintf(out, "%s: %d samples, p50 %.4f ms, p99 %.4f ms\n", label, len(lat),
		float64(percentileNs(lat, 0.50))/1e6, float64(percentileNs(lat, 0.99))/1e6)
}

// observe records one operation's latency; traced says it recorded spans.
func (m *measured) observe(lat int64, traced bool) {
	m.lat = append(m.lat, lat)
	if traced {
		m.tracedLat = append(m.tracedLat, lat)
	}
}

// sampled returns tr for every every-th request and nil for the rest,
// keeping the spans of high-rate workloads within the trace buffer.
func sampled(tr *tracer, req, every int) *tracer {
	if req%every != 0 {
		return nil
	}
	return tr
}

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"rebuild", "ingest", "degraded-io", "serve"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "rebuild":
		return &rebuild{}, nil
	case "ingest":
		return &ingest{}, nil
	case "degraded-io":
		return &degradedIO{}, nil
	case "serve":
		return &serve{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
}

// A run sets up at least minSetups times, and again while the set-ups
// have taken less than setupBudget in all (at most maxSetups times);
// setup_s is the median. Set-up ranges from about 0.1 ms (degraded-io)
// to tens of milliseconds (rebuild), and one set-up is too short to
// repeat on a host whose speed drifts from second to second.
const (
	minSetups   = 5
	maxSetups   = 101
	setupBudget = 500 * time.Millisecond
)

// warmup is the untimed load every run starts with. On a host whose
// vCPUs are throttled when they turn busy, the first second of load
// stalls for milliseconds at a time.
const warmup = time.Second

// spanCapacity bounds the spans one traced run keeps in memory.
const spanCapacity = 1 << 20

type runOpts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string // with trace: write spans here
	corrupt  bool   // damage the golden reference after set-up
}

// runWorkload runs one workload and prints its text report to out. An
// error means the run could not be made at all (bad flags, a failing
// set-up); failed operations are counted in the result instead.
func runWorkload(o runOpts, out io.Writer) (result, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if err := w.fixture(o.seed); err != nil {
		return result{}, fmt.Errorf("%s: fixture: %w", o.workload, err)
	}
	var setups []float64
	spent := 0.0
	for k := 0; k < minSetups || (k < maxSetups && spent < setupBudget.Seconds()); k++ {
		if k > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[k]
	}
	defer w.teardown()
	if o.corrupt {
		w.corruptGolden()
	}
	runtime.GC() // start measuring without the fixture's garbage

	fmt.Fprintf(out, "workload %s: %s\n", o.workload, w.describe())
	fmt.Fprintf(out, "seed %d, %d s measured, trace %v\n", o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "set-up: %d times, median %.6f s, min %.6f s, max %.6f s\n", len(setups), median(setups), slices.Min(setups), slices.Max(setups))
	d := time.Duration(o.seconds) * time.Second
	res := result{Metrics: map[string]metric{}}
	warm := w.measure(warmup, nil, true)
	reportErrors(out, warm)
	if !o.trace {
		m := w.measure(d, nil, false)
		res.Attempted, res.Failed = warm.attempted+m.attempted, warm.failed+m.failed
		vals := map[string]float64{
			"gbps":    m.gbps,
			"setup_s": median(setups),
		}
		for _, def := range endToEnd {
			res.Metrics[def.name] = metric{vals[def.name], def.unit}
		}
		printSteps(out, m)
		printLatency(out, "latency", m.lat)
		classes := make([]string, 0, len(m.classes))
		for c := range m.classes {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			printLatency(out, "latency of "+c, m.classes[c])
		}
		fmt.Fprintf(out, "generator: latest start %.3f ms\n", float64(m.late)/1e6)
		reportErrors(out, m)
	} else {
		base := w.measure(d/2, nil, true)
		tr := newTracer(spanCapacity)
		traced := w.measure(d/2, tr, true)
		tr.markReplay()
		replayed := &measured{}
		vals, err := replayLayers(w.replayCase(), tr, replayed)
		if err != nil {
			return result{}, fmt.Errorf("%s: layer replay: %w", o.workload, err)
		}
		for k, v := range traced.layer {
			vals[k] = v
		}
		spanMetrics(tr, vals)
		vals["bench.late_ms"] = float64(base.late) / 1e6
		vals["bench.trace_overhead"] = float64(percentileNs(traced.tracedLat, 0.5)) / float64(percentileNs(base.lat, 0.5))
		res.Attempted = warm.attempted + base.attempted + traced.attempted + replayed.attempted
		res.Failed = warm.failed + base.failed + traced.failed + replayed.failed
		for _, def := range perLayer {
			res.Metrics[def.name] = metric{vals[def.name], def.unit}
		}
		fmt.Fprintf(out, "spans: %d recorded, %d dropped\n", len(tr.recorded()), tr.dropped.Load())
		reportErrors(out, base)
		reportErrors(out, traced)
		reportErrors(out, replayed)
		if o.spans != "" {
			if err := tr.write(o.spans); err != nil {
				return result{}, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	res.Correct = res.Failed == 0
	printMetrics(out, res)
	return res, nil
}

// spanMetrics derives the span-based per-layer metrics.
func spanMetrics(tr *tracer, vals map[string]float64) {
	runs := tr.of(spRun)
	vals["pipeline.fill_share"] = tr.shareOfParents(runs, spSourceNext)
	vals["pipeline.drain_share"] = tr.shareOfParents(runs, spSinkDrain)
	vals["pipeline.run_start_us"] = tr.firstChildDelayUs(runs, spSourceNext)
	self := tr.selfTimes()
	var rs []float64
	for _, id := range tr.of(spReadSectors) {
		rs = append(rs, float64(self[id])/1e3)
	}
	vals["fault.read_sectors_self_us"] = median(rs)
	vals["fault.store_read_us"] = tr.medianDurUs(tr.of(spStoreRead))
	vals["fault.store_write_us"] = tr.medianDurUs(tr.of(spStoreWrite))
	vals["core.update_us"] = tr.medianDurUs(tr.of(spUpdate))
}

func printSteps(out io.Writer, m *measured) {
	if len(m.steps) == 0 {
		return
	}
	fmt.Fprintf(out, "rate steps (p99 limit applies):\n")
	for _, s := range m.steps {
		fmt.Fprintf(out, "  %8.0f /s  %7d requests  p50 %9.4f ms  p99 %9.4f ms  backlog %5d  dropped %d  sustained %v\n",
			s.rate, s.requests, s.p50, s.p99, s.backlog, s.dropped, s.ok)
	}
	fmt.Fprintf(out, "max_rps %.0f ops/s\n", m.maxRPS)
}

func reportErrors(out io.Writer, m *measured) {
	rate := 0.0
	if m.attempted > 0 {
		rate = float64(m.failed) / float64(m.attempted)
	}
	fmt.Fprintf(out, "error_rate %g (%d of %d operations failed)\n", rate, m.failed, m.attempted)
	if m.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", m.firstErr)
	}
}

func printMetrics(out io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

// timedStore wraps a fault.Store with spans around every strip read and
// write; parent and req name the span they belong to.
type timedStore struct {
	fault.Store
	tr     *tracer
	parent int32
	req    int32
}

func (s *timedStore) ReadStrip(idx, disk int, dst []byte) error {
	id := s.tr.begin(spStoreRead, s.parent, s.req)
	err := s.Store.ReadStrip(idx, disk, dst)
	s.tr.end(id)
	return err
}

func (s *timedStore) WriteStrip(idx, disk int, src []byte) error {
	id := s.tr.begin(spStoreWrite, s.parent, s.req)
	err := s.Store.WriteStrip(idx, disk, src)
	s.tr.end(id)
	return err
}
