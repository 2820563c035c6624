package harness

import (
	"io"
	"time"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/decode"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// runEncodeExp measures encoding speed (traditional vs PPM) across the
// (m, s) grid. The paper folds encoding into its decode measurements
// ("the encoding process ... is a special case of the decoding
// process"); this experiment breaks it out, since encoding is the
// steady-state cost of an erasure-coded system. For SD the encode
// partition has p = r - z_c groups (z_c = rows holding coding sectors).
func runEncodeExp(w io.Writer, cfg Config) error {
	tw := newTabWriter(w)
	fprintf(tw, "m\ts\tn\ttrad_MBps\tppm_MBps\timprovement\tpredicted\tp\n")
	for _, ms := range gridMS(cfg) {
		m, s := ms[0], ms[1]
		for _, n := range gridN(cfg) {
			if m >= n {
				continue
			}
			sd, err := newSD(n, 16, m, s)
			if err != nil {
				return err
			}
			sc := codes.EncodingScenario(sd)
			trad, err := measureDecode(sd, sc, kindTraditional, cfg)
			if err != nil {
				return err
			}
			ppm, err := measureDecode(sd, sc, kindPPM, cfg)
			if err != nil {
				return err
			}
			pred, err := predictedImprovement(sd, sc)
			if err != nil {
				return err
			}
			plan, err := core.BuildPlan(sd, sc, core.StrategyPPM)
			if err != nil {
				return err
			}
			fprintf(tw, "%d\t%d\t%d\t%.1f\t%.1f\t%.4f\t%.4f\t%d\n",
				m, s, n, trad.throughputMBps(), ppm.throughputMBps(),
				improvement(trad, ppm), pred, plan.Partition.P())
		}
	}
	return tw.Flush()
}

// runAblation isolates the two PPM mechanisms (§III-B cost reduction
// vs §III-C parallelism) against the related-work block-level baseline:
//
//	trad       — whole matrix, Normal sequence, serial (C1)
//	block-par  — whole matrix, byte ranges split over T workers (C1)
//	ppm-T1     — partition + sequence optimisation, one worker (C4)
//	ppm        — partition + sequence optimisation, T workers (C4)
//
// On a single-core host block-par ≈ trad and ppm ≈ ppm-T1; on a
// multi-core host the gaps display the two mechanisms separately.
func runAblation(w io.Writer, cfg Config) error {
	tw := newTabWriter(w)
	fprintf(tw, "m\ts\tn\tvariant\tMBps\tmult_XORs\n")
	for _, ms := range gridMS(cfg) {
		m, s := ms[0], ms[1]
		for _, n := range gridN(cfg) {
			if m >= n {
				continue
			}
			sd, err := newSD(n, 16, m, s)
			if err != nil {
				return err
			}
			sc, err := sdWorst(sd, 1, cfg)
			if err != nil {
				return err
			}
			variants := []struct {
				name string
				run  func(st *stripe.Stripe, stats *kernel.Stats) error
			}{
				{"trad", func(st *stripe.Stripe, stats *kernel.Stats) error {
					return decode.Decode(sd, st, sc, decode.Options{Stats: stats})
				}},
				{"block-par", func(st *stripe.Stripe, stats *kernel.Stats) error {
					return decode.DecodeBlockParallel(sd, st, sc, threadsOrDefault(cfg), decode.Options{Stats: stats})
				}},
				{"ppm-T1", func(st *stripe.Stripe, stats *kernel.Stats) error {
					return core.NewDecoder(sd, core.WithThreads(1), core.WithStats(stats)).Decode(st, sc)
				}},
				{"ppm", func(st *stripe.Stripe, stats *kernel.Stats) error {
					return core.NewDecoder(sd, core.WithThreads(cfg.Threads), core.WithStats(stats)).Decode(st, sc)
				}},
			}
			for _, v := range variants {
				meas, ops, err := measureVariant(sd, sc, cfg, v.run)
				if err != nil {
					return err
				}
				fprintf(tw, "%d\t%d\t%d\t%s\t%.1f\t%d\n", m, s, n, v.name, meas.throughputMBps(), ops)
			}
		}
	}
	return tw.Flush()
}

func threadsOrDefault(cfg Config) int {
	if cfg.Threads > 0 {
		return cfg.Threads
	}
	return core.DefaultThreads()
}

// measureVariant times an arbitrary decode variant the same way
// measureDecode does, and reports the per-decode operation count.
func measureVariant(c codes.Code, sc codes.Scenario, cfg Config, run func(*stripe.Stripe, *kernel.Stats) error) (measurement, int64, error) {
	st, err := stripe.ForCode(c, cfg.StripeBytes)
	if err != nil {
		return measurement{}, 0, err
	}
	st.FillDataRandom(cfg.Seed, codes.DataPositions(c))
	if err := decode.Encode(c, st, decode.Options{}); err != nil {
		return measurement{}, 0, err
	}
	iters := cfg.Iterations
	if iters < 1 {
		iters = 1
	}
	var best time.Duration
	var ops int64
	for i := -1; i < iters; i++ {
		st.Scribble(cfg.Seed+int64(i), sc.Faulty)
		var stats kernel.Stats
		start := time.Now()
		if err := run(st, &stats); err != nil {
			return measurement{}, 0, err
		}
		elapsed := time.Since(start)
		if i >= 0 && (best == 0 || elapsed < best) {
			best = elapsed
		}
		ops = stats.MultXORs()
	}
	return measurement{seconds: best.Seconds(), bytes: st.TotalBytes()}, ops, nil
}
