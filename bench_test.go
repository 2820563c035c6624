package ppm

// One benchmark per data figure of the paper (see DESIGN.md §3 for the
// full experiment index; cmd/ppmbench regenerates the actual series and
// EXPERIMENTS.md records paper-vs-measured). Benchmarks default to
// modest stripe sizes so the whole suite runs in CI; the shapes —
// opt-SD above SD, saturation at T = cores, LRC gains below SD gains —
// match the paper at every size above the Figure 9 knee.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

const benchStripeBytes = 2 << 20

// benchSetup builds an encoded stripe and a worst-case scenario.
func benchSetup(b *testing.B, code Code, sc Scenario, stripeBytes int) *Stripe {
	b.Helper()
	st, err := StripeForCode(code, stripeBytes)
	if err != nil {
		b.Fatal(err)
	}
	st.FillDataRandom(1, DataPositions(code))
	if err := TraditionalEncode(code, st, nil); err != nil {
		b.Fatal(err)
	}
	_ = sc
	return st
}

func benchDecode(b *testing.B, code Code, sc Scenario, dec func(*Stripe) error, stripeBytes int) {
	b.Helper()
	st := benchSetup(b, code, sc, stripeBytes)
	b.SetBytes(int64(st.TotalBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st.Scribble(int64(i), sc.Faulty)
		b.StartTimer()
		if err := dec(st); err != nil {
			b.Fatal(err)
		}
	}
}

func sdWorstCase(b *testing.B, n, r, m, s, z int) (*SD, Scenario) {
	b.Helper()
	sd, err := NewSD(n, r, m, s)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := sd.WorstCaseScenario(rand.New(rand.NewSource(42)), z)
	if err != nil {
		b.Fatal(err)
	}
	return sd, sc
}

// BenchmarkFig4CostModel times the full §III-B cost analysis (log
// table, partition, whole-matrix inversion, all four C values) — the
// planning overhead PPM adds before touching any data.
func BenchmarkFig4CostModel(b *testing.B) {
	sd, sc := sdWorstCase(b, 16, 16, 2, 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildPlan(sd, sc, StrategyAuto); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Threads regenerates the Figure 7 thread sweep for one
// representative configuration (n=16, r=16, m=2, s=2).
func BenchmarkFig7Threads(b *testing.B) {
	sd, sc := sdWorstCase(b, 16, 16, 2, 2, 1)
	for _, t := range []int{1, 2, 4, 8} {
		t := t
		b.Run(fmt.Sprintf("T=%d", t), func(b *testing.B) {
			dec := NewDecoder(sd, WithThreads(t))
			benchDecode(b, sd, sc, func(st *Stripe) error { return dec.Decode(st, sc) }, benchStripeBytes)
		})
	}
}

// BenchmarkFig8SpeedupN regenerates the Figure 8 comparison: SD decoded
// traditionally, opt-SD (PPM), and RS with m+1 parities, across n.
func BenchmarkFig8SpeedupN(b *testing.B) {
	for _, n := range []int{6, 11, 16, 21} {
		n := n
		sd, sc := sdWorstCase(b, n, 16, 2, 2, 1)
		b.Run(fmt.Sprintf("n=%d/SD-traditional", n), func(b *testing.B) {
			benchDecode(b, sd, sc, func(st *Stripe) error {
				return TraditionalDecode(sd, st, sc, nil)
			}, benchStripeBytes)
		})
		b.Run(fmt.Sprintf("n=%d/opt-SD-ppm", n), func(b *testing.B) {
			dec := NewDecoder(sd, WithThreads(4))
			benchDecode(b, sd, sc, func(st *Stripe) error { return dec.Decode(st, sc) }, benchStripeBytes)
		})
		b.Run(fmt.Sprintf("n=%d/RS-m+1", n), func(b *testing.B) {
			rs, err := NewRS(n, 16, 3)
			if err != nil {
				b.Fatal(err)
			}
			rsc, err := rs.WorstCaseScenario(rand.New(rand.NewSource(42)))
			if err != nil {
				b.Fatal(err)
			}
			benchDecode(b, rs, rsc, func(st *Stripe) error {
				return TraditionalDecode(rs, st, rsc, nil)
			}, benchStripeBytes)
		})
	}
}

// BenchmarkFig9StripeSize regenerates the Figure 9 stripe-size sweep
// (n=16, r=16, m=2, s=2, T=4).
func BenchmarkFig9StripeSize(b *testing.B) {
	sd, sc := sdWorstCase(b, 16, 16, 2, 2, 1)
	for _, size := range []int{256 << 10, 1 << 20, 4 << 20, 16 << 20} {
		size := size
		b.Run(fmt.Sprintf("stripe=%dKiB/traditional", size>>10), func(b *testing.B) {
			benchDecode(b, sd, sc, func(st *Stripe) error {
				return TraditionalDecode(sd, st, sc, nil)
			}, size)
		})
		b.Run(fmt.Sprintf("stripe=%dKiB/ppm", size>>10), func(b *testing.B) {
			dec := NewDecoder(sd, WithThreads(4))
			benchDecode(b, sd, sc, func(st *Stripe) error { return dec.Decode(st, sc) }, size)
		})
	}
}

// BenchmarkFig10Cores regenerates Figure 10's CPU substitution: the
// improvement is measured under different GOMAXPROCS caps.
func BenchmarkFig10Cores(b *testing.B) {
	sd, sc := sdWorstCase(b, 16, 16, 2, 2, 1)
	host := runtime.NumCPU()
	for _, cores := range []int{4, 6, 8} {
		cores := cores
		if cores > host {
			continue
		}
		b.Run(fmt.Sprintf("cores=%d/ppm", cores), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(cores)
			defer runtime.GOMAXPROCS(prev)
			dec := NewDecoder(sd, WithThreads(4))
			benchDecode(b, sd, sc, func(st *Stripe) error { return dec.Decode(st, sc) }, benchStripeBytes)
		})
	}
}

// BenchmarkFig11LRC regenerates the Figure 11 LRC comparison for a
// middle-of-the-sweep storage cost.
func BenchmarkFig11LRC(b *testing.B) {
	lrc, err := NewLRC(20, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := lrc.WorstCaseScenario(rand.New(rand.NewSource(42)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("traditional", func(b *testing.B) {
		benchDecode(b, lrc, sc, func(st *Stripe) error {
			return TraditionalDecode(lrc, st, sc, nil)
		}, benchStripeBytes)
	})
	b.Run("ppm", func(b *testing.B) {
		dec := NewDecoder(lrc, WithThreads(4))
		benchDecode(b, lrc, sc, func(st *Stripe) error { return dec.Decode(st, sc) }, benchStripeBytes)
	})
}

// BenchmarkEncode compares PPM encoding (parallel over the r - z rows
// without coding sectors) against the traditional encode.
func BenchmarkEncode(b *testing.B) {
	sd, err := NewSD(16, 16, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	sc := EncodingScenario(sd)
	b.Run("traditional", func(b *testing.B) {
		benchDecode(b, sd, sc, func(st *Stripe) error {
			return TraditionalEncode(sd, st, nil)
		}, benchStripeBytes)
	})
	b.Run("ppm", func(b *testing.B) {
		dec := NewDecoder(sd, WithThreads(4))
		benchDecode(b, sd, sc, func(st *Stripe) error { return dec.Encode(st) }, benchStripeBytes)
	})
}

// BenchmarkAblationSequences isolates the calculation-sequence choice
// (DESIGN.md's ablation): the same scenario decoded under all four
// strategies with one thread, so differences come from C1..C4 alone.
func BenchmarkAblationSequences(b *testing.B) {
	sd, sc := sdWorstCase(b, 16, 16, 2, 2, 1)
	for _, strat := range []struct {
		name string
		s    Strategy
	}{
		{"C1-whole-normal", StrategyWholeNormal},
		{"C2-whole-matrix-first", StrategyWholeMatrixFirst},
		{"C3-ppm-mf-rest", StrategyPPMC3},
		{"C4-ppm", StrategyPPM},
	} {
		strat := strat
		b.Run(strat.name, func(b *testing.B) {
			dec := NewDecoder(sd, WithThreads(1), WithStrategy(strat.s))
			benchDecode(b, sd, sc, func(st *Stripe) error { return dec.Decode(st, sc) }, benchStripeBytes)
		})
	}
}

// BenchmarkAblationPlanReuse measures the planning overhead amortised
// away by plan reuse when many stripes fail identically: fresh-plan
// replans per decode (cache disabled), cached-plan is Decode with the
// default plan cache, reused-plan is the explicit DecodeWithPlan path.
// The latter two should be indistinguishable.
func BenchmarkAblationPlanReuse(b *testing.B) {
	sd, sc := sdWorstCase(b, 16, 16, 2, 2, 1)
	b.Run("fresh-plan", func(b *testing.B) {
		dec := NewDecoder(sd, WithThreads(4), WithPlanCache(0))
		benchDecode(b, sd, sc, func(st *Stripe) error { return dec.Decode(st, sc) }, benchStripeBytes)
	})
	b.Run("cached-plan", func(b *testing.B) {
		dec := NewDecoder(sd, WithThreads(4))
		benchDecode(b, sd, sc, func(st *Stripe) error { return dec.Decode(st, sc) }, benchStripeBytes)
	})
	b.Run("reused-plan", func(b *testing.B) {
		dec := NewDecoder(sd, WithThreads(4))
		plan, err := dec.Plan(sc)
		if err != nil {
			b.Fatal(err)
		}
		benchDecode(b, sd, sc, func(st *Stripe) error { return dec.DecodeWithPlan(plan, st) }, benchStripeBytes)
	})
}

// BenchmarkRepeatedDecodeAllocs isolates per-stripe allocations on the
// repeated-decode path — the whole-disk-rebuild steady state. With the
// plan cache, pooled scratch, pooled sessions and the persistent worker
// pool, a cached Decode should allocate (almost) nothing per stripe;
// the uncached arm shows what replanning costs in allocations.
func BenchmarkRepeatedDecodeAllocs(b *testing.B) {
	sd, sc := sdWorstCase(b, 8, 8, 2, 2, 1)
	for _, threads := range []int{1, 4} {
		b.Run(fmt.Sprintf("cached/T=%d", threads), func(b *testing.B) {
			dec := NewDecoder(sd, WithThreads(threads))
			st := benchSetup(b, sd, sc, 256<<10)
			if err := dec.Decode(st, sc); err != nil { // warm the plan cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dec.Decode(st, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("uncached/T=%d", threads), func(b *testing.B) {
			dec := NewDecoder(sd, WithThreads(threads), WithPlanCache(0))
			st := benchSetup(b, sd, sc, 256<<10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dec.Decode(st, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDegradedRead contrasts the LRC local-group repair with the
// RS-wide repair for a single unavailable block (the paper's cloud
// motivation, §I).
func BenchmarkDegradedRead(b *testing.B) {
	lrc, err := NewLRC(12, 3, 2)
	if err != nil {
		b.Fatal(err)
	}
	rs, err := NewRS(17, 1, 5)
	if err != nil {
		b.Fatal(err)
	}
	lost := Scenario{Faulty: []int{3}}
	b.Run("LRC-local", func(b *testing.B) {
		dec := NewDecoder(lrc)
		benchDecode(b, lrc, lost, func(st *Stripe) error { return dec.Decode(st, lost) }, benchStripeBytes)
	})
	b.Run("RS-wide", func(b *testing.B) {
		dec := NewDecoder(rs)
		benchDecode(b, rs, lost, func(st *Stripe) error { return dec.Decode(st, lost) }, benchStripeBytes)
	})
}

// BenchmarkBlockParallelBaseline measures the related-work baseline on
// the Figure 8 reference configuration.
func BenchmarkBlockParallelBaseline(b *testing.B) {
	sd, sc := sdWorstCase(b, 16, 16, 2, 2, 1)
	benchDecode(b, sd, sc, func(st *Stripe) error {
		return BlockParallelDecode(sd, st, sc, 4, nil)
	}, benchStripeBytes)
}

// BenchmarkSmallWrite compares the incremental parity update against a
// full stripe re-encode for a single-sector overwrite.
func BenchmarkSmallWrite(b *testing.B) {
	sd, err := NewSD(8, 16, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	st := benchSetup(b, sd, EncodingScenario(sd), benchStripeBytes)
	fresh := make([]byte, st.SectorSize())
	rand.New(rand.NewSource(42)).Read(fresh)

	b.Run("incremental-update", func(b *testing.B) {
		u, err := NewUpdater(sd)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(st.SectorSize()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := u.Update(st, 0, fresh, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-reencode", func(b *testing.B) {
		dec := NewDecoder(sd, WithThreads(4))
		b.SetBytes(int64(st.SectorSize()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(st.Sector(0), fresh)
			if err := dec.Encode(st); err != nil {
				b.Fatal(err)
			}
		}
	})
}
