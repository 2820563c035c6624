package pipeline

import (
	"testing"
	"time"

	"ppm/internal/codes"
	"ppm/internal/stripe"
)

// sleepSource sleeps per stripe before handing the slab out — a slow
// store on the fill edge.
type sleepSource struct {
	count int
	d     time.Duration
}

func (s *sleepSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	if idx >= s.count {
		return nil, nil
	}
	time.Sleep(s.d)
	return slab, nil
}

// sleepSink sleeps per stripe — a slow store on the drain edge, which
// also starves the free list.
type sleepSink struct{ d time.Duration }

func (k *sleepSink) Drain(int, *stripe.Stripe) error {
	time.Sleep(k.d)
	return nil
}

// TestStageStatsAttribution: each stall counter moves when — and only
// plausibly when — its stage is the bottleneck. The assertions are
// loose (>0 on the expected counter) because scheduling jitter makes
// exact stall accounting untestable.
func TestStageStatsAttribution(t *testing.T) {
	sd := testSD(t)
	const stripes = 6
	const lat = 3 * time.Millisecond

	// Slow sink: the drain stage holds slabs, so fill starves on the
	// free list.
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(&constSource{count: stripes}, &sleepSink{d: lat}); err != nil {
		t.Fatal(err)
	}
	s := e.StageStats()
	e.Close()
	if s.FillStallNs <= 0 {
		t.Errorf("slow sink: FillStallNs = %d, want > 0", s.FillStallNs)
	}
	if s.Stripes != stripes {
		t.Errorf("slow sink: Stripes = %d, want %d", s.Stripes, stripes)
	}

	// Slow source: compute shards idle waiting for work.
	e2, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Run(&sleepSource{count: stripes, d: lat}, &recordSink{}); err != nil {
		t.Fatal(err)
	}
	s2 := e2.StageStats()
	e2.Close()
	if s2.ComputeStallNs <= 0 {
		t.Errorf("slow source: ComputeStallNs = %d, want > 0", s2.ComputeStallNs)
	}

	// Slow compute: the in-order drain waits on stripe completion.
	e3, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e3.testDelay = func(int) { time.Sleep(lat) }
	if _, err := e3.Run(&constSource{count: stripes}, &recordSink{}); err != nil {
		t.Fatal(err)
	}
	s3 := e3.StageStats()
	e3.Close()
	if s3.DrainStallNs <= 0 {
		t.Errorf("slow compute: DrainStallNs = %d, want > 0", s3.DrainStallNs)
	}

	// Depth 1: the stages run in turn on the Run goroutine, so nothing
	// stalls however slow each edge is; stripes still count.
	e4, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	e4.testDelay = func(int) { time.Sleep(lat) }
	if _, err := e4.Run(&sleepSource{count: stripes, d: lat}, &sleepSink{d: lat}); err != nil {
		t.Fatal(err)
	}
	s4 := e4.StageStats()
	e4.Close()
	if s4 != (StageStats{Stripes: stripes}) {
		t.Errorf("depth 1: StageStats = %+v, want only Stripes = %d", s4, stripes)
	}
}

// TestStageStatsAccumulate: counters accumulate across runs and the
// snapshot Add helper sums component-wise.
func TestStageStatsAccumulate(t *testing.T) {
	sd := testSD(t)
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 3; i++ {
		if _, err := e.Run(&constSource{count: 4}, &recordSink{}); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.StageStats(); s.Stripes != 12 {
		t.Errorf("Stripes = %d after 3 runs of 4, want 12", s.Stripes)
	}

	a := StageStats{FillStallNs: 1, ComputeStallNs: 2, DrainStallNs: 3, Stripes: 4}
	a.Add(StageStats{FillStallNs: 10, ComputeStallNs: 20, DrainStallNs: 30, Stripes: 40})
	if a != (StageStats{FillStallNs: 11, ComputeStallNs: 22, DrainStallNs: 33, Stripes: 44}) {
		t.Errorf("Add produced %+v", a)
	}
}
