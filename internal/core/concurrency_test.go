package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// TestDecoderConcurrentStripes: one Decoder, many goroutines, distinct
// stripes with the same failure pattern — the whole-disk-rebuild shape.
// All goroutines share the plan cache, the scratch pool, the session
// pool and the worker pool; -race flags any mis-shared state.
func TestDecoderConcurrentStripes(t *testing.T) {
	sd := paperSD(t)
	sc := paperScenario(t, sd)
	dec := NewDecoder(sd, WithThreads(4))

	const goroutines = 8
	const decodesEach = 6
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < decodesEach; i++ {
				st := encodedStripe(t, sd, 128, int64(100*g+i))
				want := st.Clone()
				st.Scribble(int64(g*31+i), sc.Faulty)
				if err := dec.Decode(st, sc); err != nil {
					errs[g] = err
					return
				}
				if !st.Equal(want) {
					errs[g] = fmt.Errorf("goroutine %d decode %d: wrong bytes", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := dec.PlanCacheStats()
	if hits+misses != goroutines*decodesEach {
		t.Fatalf("cache saw %d lookups, want %d", hits+misses, goroutines*decodesEach)
	}
	// Concurrent first-decodes may each build the plan once, but the
	// steady state must be hits: at least one per goroutine after warmup.
	if hits < goroutines*decodesEach-goroutines {
		t.Fatalf("only %d cache hits across %d decodes (misses %d)", hits, goroutines*decodesEach, misses)
	}
}

// TestDecoderConcurrentScenarios: goroutines decode DIFFERENT failure
// patterns through one Decoder, hammering concurrent cache insertion
// and eviction.
func TestDecoderConcurrentScenarios(t *testing.T) {
	sd := paperSD(t)
	// A deliberately tiny cache forces eviction under concurrency.
	dec := NewDecoder(sd, WithThreads(2), WithPlanCache(3))

	rng := rand.New(rand.NewSource(42))
	type case_ struct {
		sc codes.Scenario
		st *stripe.Stripe
	}
	var cases []case_
	for len(cases) < 6 {
		sc, err := sd.WorstCaseScenario(rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		st := encodedStripe(t, sd, 64, int64(len(cases)))
		cases = append(cases, case_{sc, st})
	}

	var wg sync.WaitGroup
	errs := make([]error, len(cases)*4)
	for w := 0; w < len(errs); w++ {
		w := w
		c := cases[w%len(cases)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				st := c.st.Clone()
				st.Scribble(int64(w+i), c.sc.Faulty)
				if err := dec.Decode(st, c.sc); err != nil {
					errs[w] = err
					return
				}
				if !st.Equal(c.st) {
					errs[w] = fmt.Errorf("worker %d: wrong bytes", w)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedStatsAcrossParallelDecodes: a Stats counter shared by
// parallel decodes must total exactly decodes x plan cost — atomically,
// with no lost updates under -race.
func TestSharedStatsAcrossParallelDecodes(t *testing.T) {
	sd := paperSD(t)
	sc := paperScenario(t, sd)
	var stats kernel.Stats
	dec := NewDecoder(sd, WithThreads(4), WithStats(&stats))

	plan, err := dec.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	perDecode := plan.Costs.Chosen

	const goroutines = 6
	const decodesEach = 5
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < decodesEach; i++ {
				st := encodedStripe(t, sd, 64, int64(10*g+i))
				st.Scribble(int64(g+i), sc.Faulty)
				if err := dec.Decode(st, sc); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := perDecode * goroutines * decodesEach
	if got := stats.MultXORs(); got != want {
		t.Fatalf("shared stats counted %d mult_XORs, want %d (%d decodes x %d)",
			got, want, goroutines*decodesEach, perDecode)
	}
}

// TestPlanCacheEvictionBound: the cache never holds more than its
// capacity and keeps serving correct plans across evictions.
func TestPlanCacheEvictionBound(t *testing.T) {
	sd := paperSD(t)
	dec := NewDecoder(sd, WithPlanCache(2))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		sc, err := sd.WorstCaseScenario(rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		st := encodedStripe(t, sd, 64, int64(i))
		want := st.Clone()
		st.Scribble(int64(i), sc.Faulty)
		if err := dec.Decode(st, sc); err != nil {
			t.Fatal(err)
		}
		if !st.Equal(want) {
			t.Fatalf("decode %d: wrong bytes after eviction churn", i)
		}
	}
	if dec.cache.Len() > 2 {
		t.Fatalf("cache holds %d entries, capacity 2", dec.cache.Len())
	}
}
