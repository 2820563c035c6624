// Package array simulates an erasure-coded disk array: many stripes
// over one code instance, with disk- and sector-level failure injection
// and PPM-driven reconstruction. It is the substrate behind the
// array-repair example and models the on-line recovery setting the
// paper's related work targets (fast failure recovery in redundant
// arrays, §V [39][40]): when a disk dies, every stripe loses the same
// columns, so one PPM plan is built and reused across the whole array.
package array

import (
	"fmt"
	"sort"
	"time"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/decode"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// Array is a set of stripes encoded with one code.
type Array struct {
	code       codes.Code
	stripes    []*stripe.Stripe
	pristine   []*stripe.Stripe // reference copies for verification in tests
	failedDisk map[int]bool
	// extra sector failures: stripe index -> sorted sector indices
	extra map[int][]int
}

// New builds an array of numStripes stripes with deterministic random
// data, encoded with the traditional encoder (the array's steady state
// predates any PPM decision).
func New(c codes.Code, numStripes, sectorSize int, seed int64) (*Array, error) {
	if numStripes < 1 {
		return nil, fmt.Errorf("array: need at least one stripe")
	}
	a := &Array{
		code:       c,
		failedDisk: make(map[int]bool),
		extra:      make(map[int][]int),
	}
	for i := 0; i < numStripes; i++ {
		st, err := stripe.New(c.NumStrips(), c.NumRows(), sectorSize)
		if err != nil {
			return nil, err
		}
		st.FillDataRandom(seed+int64(i), codes.DataPositions(c))
		if err := decode.Encode(c, st, decode.Options{}); err != nil {
			return nil, fmt.Errorf("array: encoding stripe %d: %w", i, err)
		}
		a.stripes = append(a.stripes, st)
		a.pristine = append(a.pristine, st.Clone())
	}
	return a, nil
}

// Code returns the array's code instance.
func (a *Array) Code() codes.Code { return a.code }

// Stripes returns the stripe count.
func (a *Array) Stripes() int { return len(a.stripes) }

// TotalBytes returns the array's payload size.
func (a *Array) TotalBytes() int {
	return len(a.stripes) * a.stripes[0].TotalBytes()
}

// FailDisks marks whole disks as failed: the affected sectors of every
// stripe are scribbled over (a rebuilt replacement drive starts with
// garbage, not zeros). Every index is checked before any disk fails, so
// a rejected call changes nothing.
func (a *Array) FailDisks(disks ...int) error {
	seen := make(map[int]bool, len(disks))
	for _, d := range disks {
		if d < 0 || d >= a.code.NumStrips() {
			return fmt.Errorf("array: disk %d out of range [0,%d)", d, a.code.NumStrips())
		}
		if a.failedDisk[d] || seen[d] {
			return fmt.Errorf("array: disk %d already failed", d)
		}
		seen[d] = true
	}
	for _, d := range disks {
		a.failedDisk[d] = true
	}
	for i, st := range a.stripes {
		var sectors []int
		for _, d := range disks {
			for row := 0; row < a.code.NumRows(); row++ {
				sectors = append(sectors, row*a.code.NumStrips()+d)
			}
		}
		st.Scribble(int64(1000+i), sectors)
	}
	return nil
}

// FailSectors injects latent sector errors into one stripe.
func (a *Array) FailSectors(stripeIdx int, sectors ...int) error {
	if stripeIdx < 0 || stripeIdx >= len(a.stripes) {
		return fmt.Errorf("array: stripe %d out of range", stripeIdx)
	}
	total := codes.TotalSectors(a.code)
	seen := map[int]bool{}
	for _, s := range a.extra[stripeIdx] {
		seen[s] = true
	}
	for _, s := range sectors {
		if s < 0 || s >= total {
			return fmt.Errorf("array: sector %d out of range", s)
		}
		if !seen[s] {
			a.extra[stripeIdx] = append(a.extra[stripeIdx], s)
			seen[s] = true
		}
	}
	sort.Ints(a.extra[stripeIdx])
	a.stripes[stripeIdx].Scribble(int64(2000+stripeIdx), sectors)
	return nil
}

// Degraded reports whether any failure is outstanding.
func (a *Array) Degraded() bool {
	return len(a.failedDisk) > 0 || len(a.extra) > 0
}

// RepairStats summarises a whole-array reconstruction.
type RepairStats struct {
	Stripes       int
	BytesRepaired int64
	MultXORs      int64
	Elapsed       time.Duration
	PlansBuilt    int
}

// ThroughputMBps is repaired bytes per second of rebuild.
func (s RepairStats) ThroughputMBps() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.BytesRepaired) / 1e6 / s.Elapsed.Seconds()
}

// String renders a one-line summary.
func (s RepairStats) String() string {
	return fmt.Sprintf("repaired %d stripes (%.1f MB) in %v: %.1f MB/s, %d mult_XORs, %d plan(s)",
		s.Stripes, float64(s.BytesRepaired)/1e6, s.Elapsed.Round(time.Millisecond),
		s.ThroughputMBps(), s.MultXORs, s.PlansBuilt)
}

// Repair reconstructs every failed sector in the array with PPM. Plan
// reuse rides the Decoder's built-in plan cache: stripes that lost only
// the failed disks share a single cached plan (the overwhelmingly
// common case), while stripes with extra sector errors get their own
// cache entries. The steady-state stripe decode is allocation-free —
// one plan, pooled scratch, persistent workers.
func (a *Array) Repair(threads int) (RepairStats, error) {
	var stats RepairStats
	if !a.Degraded() {
		return stats, nil
	}
	disks := a.failedDisks()
	var diskSectors []int
	for _, d := range disks {
		for row := 0; row < a.code.NumRows(); row++ {
			diskSectors = append(diskSectors, row*a.code.NumStrips()+d)
		}
	}

	var opCounter kernel.Stats
	dec := core.NewDecoder(a.code, core.WithThreads(threads), core.WithStats(&opCounter))
	start := time.Now()
	for i, st := range a.stripes {
		faulty := append([]int(nil), diskSectors...)
		for _, s := range a.extra[i] {
			// A latent error on a failed disk is already in diskSectors.
			if !a.failedDisk[s%a.code.NumStrips()] {
				faulty = append(faulty, s)
			}
		}
		if len(faulty) == 0 {
			continue
		}
		sc, err := codes.NewScenario(a.code, faulty)
		if err != nil {
			return stats, fmt.Errorf("array: stripe %d: %w", i, err)
		}
		if err := dec.Decode(st, sc); err != nil {
			return stats, fmt.Errorf("array: stripe %d: %w", i, err)
		}
		stats.Stripes++
		stats.BytesRepaired += int64(len(sc.Faulty) * st.SectorSize())
	}
	stats.Elapsed = time.Since(start)
	stats.MultXORs = opCounter.MultXORs()
	_, misses := dec.PlanCacheStats()
	stats.PlansBuilt = int(misses)

	a.failedDisk = make(map[int]bool)
	a.extra = make(map[int][]int)
	return stats, nil
}

// Verify checks H*B = 0 on every stripe.
func (a *Array) Verify() (bool, error) {
	for i, st := range a.stripes {
		ok, err := decode.Verify(a.code, st)
		if err != nil {
			return false, fmt.Errorf("array: stripe %d: %w", i, err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// Intact reports whether the array content matches what was originally
// encoded, byte for byte. For tests and demos.
func (a *Array) Intact() bool {
	for i, st := range a.stripes {
		if !st.Equal(a.pristine[i]) {
			return false
		}
	}
	return true
}

func (a *Array) failedDisks() []int {
	var disks []int
	for d := range a.failedDisk {
		disks = append(disks, d)
	}
	sort.Ints(disks)
	return disks
}
