package repair

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/lru"
)

// lruScenario builds a decodable scenario or fails the test.
func lruScenario(t *testing.T, c codes.Code, faulty []int) codes.Scenario {
	t.Helper()
	sc, err := codes.NewScenario(c, faulty)
	if err != nil {
		t.Fatalf("faulty=%v: %v", faulty, err)
	}
	if !codes.Decodable(c, sc) {
		t.Fatalf("faulty=%v: not decodable", faulty)
	}
	return sc
}

// TestPlannerCacheEviction pins the LRU discipline of a planner cache
// cut to two entries: the least recently used plan is evicted, a recently
// touched one survives, and every Plan call is accounted as exactly one
// hit or one miss.
func TestPlannerCacheEviction(t *testing.T) {
	c, err := codes.NewPublishedSD(1)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(c)
	pl.cache = lru.New[*Plan](2)
	sc1 := lruScenario(t, c, []int{1})
	sc2 := lruScenario(t, c, []int{7})
	sc3 := lruScenario(t, c, []int{13})

	p1, err := pl.Plan(sc1, nil) // miss
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(sc2, nil); err != nil { // miss
		t.Fatal(err)
	}
	// Touch sc1 so sc2 is the eviction victim.
	if p, err := pl.Plan(sc1, nil); err != nil || p != p1 { // hit
		t.Fatalf("resident plan was rebuilt (err=%v)", err)
	}
	if _, err := pl.Plan(sc3, nil); err != nil { // miss, evicts sc2
		t.Fatal(err)
	}
	if p, err := pl.Plan(sc1, nil); err != nil || p != p1 { // hit
		t.Fatalf("sc1 evicted out of LRU order (err=%v)", err)
	}
	if _, err := pl.Plan(sc2, nil); err != nil { // miss: was evicted
		t.Fatal(err)
	}
	hits, misses := pl.CacheStats()
	if hits != 2 || misses != 4 {
		t.Fatalf("hits=%d misses=%d, want 2/4", hits, misses)
	}
}

// TestPlannerCacheWantedKeying pins that the wanted set is part of the
// cache key: a partial-recovery plan and the full plan for the same
// failure pattern are distinct entries, and replanning the original
// request after the widened one still hits the cached plan.
func TestPlannerCacheWantedKeying(t *testing.T) {
	c, err := codes.NewPublishedSD(1)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(c)
	sc := lruScenario(t, c, []int{2, 8})

	partial, err := pl.Plan(sc, []int{2}) // miss
	if err != nil {
		t.Fatal(err)
	}
	full, err := pl.Plan(sc, nil) // miss: different wanted key
	if err != nil {
		t.Fatal(err)
	}
	if partial == full {
		t.Fatal("partial and full recovery requests shared one cache entry")
	}
	if p, err := pl.Plan(sc, []int{2}); err != nil || p != partial { // hit
		t.Fatalf("partial plan was rebuilt after the full plan (err=%v)", err)
	}
	if p, err := pl.Plan(sc, nil); err != nil || p != full { // hit
		t.Fatalf("full plan was rebuilt after the partial plan (err=%v)", err)
	}
	if hits, misses := pl.CacheStats(); hits != 2 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", hits, misses)
	}

	// The key holds only the wanted sectors that are faulty, as a set:
	// reordered, repeated and live-padded lists of one request hit, and
	// naming every faulty sector is the nil request.
	for _, wanted := range [][]int{{2, 8}, {8, 2}, {2, 8, 8}, {2, 8, 9}, {9, 8, 0, 2}} {
		if p, err := pl.Plan(sc, wanted); err != nil || p != full { // hit
			t.Fatalf("wanted %v rebuilt the full plan (err=%v)", wanted, err)
		}
	}
	if p, err := pl.Plan(sc, []int{9, 2}); err != nil || p != partial { // hit
		t.Fatalf("wanted {9,2} rebuilt the plan of {2} (err=%v)", err)
	}
	if hits, misses := pl.CacheStats(); hits != 8 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 8/2", hits, misses)
	}
}

// TestPlannerCacheKeysPlansExactly: a plan from one warm planner equals
// a fresh build of the same request, over faulty lists in both orders
// and random wanted sets with live and repeated sectors, so no two
// different plans share a cache key.
func TestPlannerCacheKeysPlansExactly(t *testing.T) {
	c, err := codes.NewPublishedSD(1)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(c)
	total := codes.TotalSectors(c)
	faultyLists := [][]int{{2, 8}, {8, 2}, {0, 7, 13}, {13, 0, 7}, {5}}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 300; round++ {
		faulty := faultyLists[rng.Intn(len(faultyLists))]
		var wanted []int
		if rng.Intn(5) > 0 {
			wanted = []int{}
			for n := rng.Intn(6); n > 0; n-- {
				if rng.Intn(2) == 0 {
					wanted = append(wanted, faulty[rng.Intn(len(faulty))])
				} else {
					wanted = append(wanted, rng.Intn(total))
				}
			}
		}
		sc := codes.Scenario{Faulty: faulty}
		got, err := pl.Plan(sc, wanted)
		if err != nil {
			t.Fatalf("faulty=%v wanted=%v: %v", faulty, wanted, err)
		}
		want, err := buildPlan(c, sc, wanted)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Scenario.Faulty, want.Scenario.Faulty) ||
			!slices.Equal(got.Wanted, want.Wanted) || !slices.Equal(got.ReadCols, want.ReadCols) {
			t.Fatalf("faulty=%v wanted=%v: cached plan (faulty %v, wanted %v, reads %v) differs from a fresh build (faulty %v, wanted %v, reads %v)",
				faulty, wanted, got.Scenario.Faulty, got.Wanted, got.ReadCols,
				want.Scenario.Faulty, want.Wanted, want.ReadCols)
		}
	}
	if hits, _ := pl.CacheStats(); hits == 0 {
		t.Fatal("no request hit the cache")
	}
}

// TestPlannerCacheConcurrent hammers one planner from many goroutines
// (run with -race): no call errors, every call is accounted exactly
// once, and each key was built at least once.
func TestPlannerCacheConcurrent(t *testing.T) {
	c, err := codes.NewPublishedSD(1)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(c)
	scs := []codes.Scenario{
		lruScenario(t, c, []int{0}),
		lruScenario(t, c, []int{5}),
		lruScenario(t, c, []int{11}),
		lruScenario(t, c, []int{3, 9}),
	}

	const workers = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*len(scs))
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range scs {
					sc := scs[(i+g)%len(scs)]
					if _, err := pl.Plan(sc, nil); err != nil {
						errs <- err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses := pl.CacheStats()
	const calls = workers * rounds * 4
	if hits+misses != calls {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d calls", hits, misses, hits+misses, calls)
	}
	// Concurrent cold misses on one key may each count, but every key
	// missed at least once and the cache absorbed the rest.
	if misses < int64(len(scs)) {
		t.Fatalf("misses=%d below the %d distinct keys", misses, len(scs))
	}
	if hits == 0 {
		t.Fatal("no hits across repeated rounds: the cache is not retaining plans")
	}
}

// TestPlannerNilWantedSorted: a nil wanted is every faulty sector, in
// Plan.Wanted's sorted order whatever the faulty list's order, and it
// shares its cache entry with the explicit list of them all.
func TestPlannerNilWantedSorted(t *testing.T) {
	c, err := codes.NewPublishedSD(1)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(c)
	sc := codes.Scenario{Faulty: []int{8, 2}}
	all, err := pl.Plan(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := pl.Plan(sc, []int{8, 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Plan{"nil": all, "explicit": explicit} {
		if !slices.Equal(p.Wanted, []int{2, 8}) {
			t.Fatalf("%s wanted: Plan.Wanted = %v, want [2 8]", name, p.Wanted)
		}
	}
	if hits, misses := pl.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("cache: %d hits, %d misses, want 1 and 1", hits, misses)
	}
}
