package main

import (
	"io"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// specPath is BENCHMARK.json at the repository root.
const specPath = "../BENCHMARK.json"

func names(ms map[string]metric) []string {
	var out []string
	for k := range ms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func specNames(t *testing.T, list func(spec) []specMetric) []string {
	t.Helper()
	s, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range list(s) {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func run(t *testing.T, o runOpts) result {
	t.Helper()
	if o.seed == 0 {
		o.seed = 1
	}
	if o.seconds == 0 {
		o.seconds = 1
	}
	res, err := runWorkload(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Every workload runs clean for a second and prints exactly the metrics
// BENCHMARK.json lists, untraced and traced.
func TestWorkloadsRunClean(t *testing.T) {
	endToEnd := specNames(t, func(s spec) []specMetric { return s.EndToEnd })
	perLayer := specNames(t, func(s spec) []specMetric { return s.PerLayer })
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res := run(t, runOpts{workload: w, trace: trace})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d operations failed", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := names(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json lists %v", w, trace, got, want)
			}
			for k, m := range res.Metrics {
				if math.IsNaN(m.Value) {
					t.Errorf("%s trace=%v: %s is NaN", w, trace, k)
				}
			}
		}
	}
}

// A damaged golden reference makes operations fail: the checks are live.
func TestCorruptGoldenFails(t *testing.T) {
	for _, w := range workloadNames {
		res := run(t, runOpts{workload: w, corrupt: true})
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: golden reference damaged, yet %d of %d operations failed", w, res.Failed, res.Attempted)
		}
	}
}

// The same seed gives the same requests and the same counts.
func TestSameSeedSameCounts(t *testing.T) {
	a, b := rngFor(7, 101), rngFor(7, 101)
	if !reflect.DeepEqual(schedule(a, 1000, 1e9), schedule(b, 1000, 1e9)) {
		t.Error("schedule differs for one seed")
	}
	d := &degradedIO{perm: rngFor(7, 3).Perm(dioStripes), data: []int{0, 1, 2, 3}, liveData: []int{0, 1, 2}}
	if !reflect.DeepEqual(d.genOps(rngFor(7, 102), 5000), d.genOps(rngFor(7, 102), 5000)) {
		t.Error("degraded-io requests differ for one seed")
	}

	counts := []string{"kernel.mult_xors_per_stripe", "fault.strips_read_per_op", "fault.replans", "fault.corrupt_sectors"}
	var first map[string]float64
	for k := 0; k < 2; k++ {
		res := run(t, runOpts{workload: "degraded-io", seed: 3, seconds: 2, trace: true})
		got := map[string]float64{}
		for _, c := range counts {
			got[c] = res.Metrics[c].Value
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Errorf("counts differ between runs of one seed: %v then %v", first, got)
		}
	}
	if first["fault.corrupt_sectors"] == 0 {
		t.Error("no corrupt sector was found; the fixture's silent corruption is not exercised")
	}
}

// keyedLog is a requests implementation that records, on a logical
// clock, when each request started and ended.
type keyedLog struct {
	keys       []int
	excl       []bool
	clock      atomic.Int64
	start, end []int64
	runs       []atomic.Int32
}

func (r *keyedLog) key(i int) (int, bool) { return r.keys[i], r.excl[i] }

func (r *keyedLog) serve(_, i int) error {
	r.start[i] = r.clock.Add(1)
	r.runs[i].Add(1)
	runtime.Gosched()
	r.end[i] = r.clock.Add(1)
	return nil
}

// drive runs every request once and, within a key, finishes every
// request before a later exclusive one starts and an exclusive one
// before any later request starts, in an open and a closed loop.
func TestDriveKeyOrder(t *testing.T) {
	const n, nkeys = 20000, 4
	for _, open := range []bool{true, false} {
		rng := rngFor(1, 1)
		r := &keyedLog{keys: make([]int, n), excl: make([]bool, n), start: make([]int64, n), end: make([]int64, n), runs: make([]atomic.Int32, n)}
		for i := range r.keys {
			r.keys[i], r.excl[i] = rng.Intn(nkeys), rng.Intn(5) == 0
		}
		var due []int64
		if open {
			due = schedule(rng, 1e6, time.Second)[:n]
		}
		p := drive(2, n, due, 10*time.Second, r)
		if p.n != n || p.failed != 0 || p.dropped != 0 {
			t.Fatalf("open=%v: claimed %d of %d, %d failed, %d dropped", open, p.n, n, p.failed, p.dropped)
		}
		if open && len(p.log) != n {
			t.Errorf("open loop logged %d requests, want %d", len(p.log), n)
		}
		for i := range r.runs {
			if c := r.runs[i].Load(); c != 1 {
				t.Fatalf("open=%v: request %d ran %d times", open, i, c)
			}
		}
		for k := 0; k < nkeys; k++ {
			var idx []int
			for i, key := range r.keys {
				if key == k {
					idx = append(idx, i)
				}
			}
			maxEnd := make([]int64, len(idx)+1) // over idx[:j]
			for j, i := range idx {
				maxEnd[j+1] = max(maxEnd[j], r.end[i])
			}
			minStart := int64(math.MaxInt64) // over idx[j+1:]
			for j := len(idx) - 1; j >= 0; j-- {
				i := idx[j]
				if r.excl[i] && (maxEnd[j] > r.start[i] || minStart < r.end[i]) {
					t.Fatalf("open=%v: exclusive request %d of key %d overlaps an earlier or later request", open, i, k)
				}
				minStart = min(minStart, r.start[i])
			}
		}
	}
}

// Python's statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// -compare exits non-zero on a regression beyond the bound and on a
// higher error rate, and zero when the head matches the base.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, gbps float64, failed int64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 5; seed++ {
			r := record{Workload: "rebuild", Seed: seed, result: result{
				Correct: failed == 0, Attempted: 100, Failed: failed,
				Metrics: map[string]metric{
					"gbps":    {gbps + float64(seed)*0.01, "GB/s"},
					"setup_s": {0.05 + float64(seed)*0.0001, "s"},
				},
			}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", 8, 0)
	for _, c := range []struct {
		name   string
		gbps   float64
		failed int64
		want   int
	}{
		{"same", 8, 0, 0},
		{"slower", 5, 0, 1},
		{"faster", 11, 0, 0},
		{"failing", 8, 1, 1},
	} {
		head := write(c.name+".jsonl", c.gbps, c.failed)
		if got := compareMain(specPath, []string{base, head}, io.Discard); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
	if got := compareMain(specPath, []string{base}, io.Discard); got != 2 {
		t.Errorf("one file: exit %d, want 2", got)
	}
}
