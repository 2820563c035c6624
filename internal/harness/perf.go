package harness

import (
	"io"
	"runtime"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/gf"
)

// runFig7 regenerates Figure 7: improvement ratio of PPM decode over
// the traditional decode as the thread count T varies, across n and
// (m, s) (r = 16, z = 1, stripe per config).
func runFig7(w io.Writer, cfg Config) error {
	tw := newTabWriter(w)
	fprintf(tw, "m\ts\tn\tT\timprovement\n")
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
			trad, err := measureDecode(sd, sc, kindTraditional, cfg)
			if err != nil {
				return err
			}
			for _, t := range capThreads(cfg) {
				tcfg := cfg
				tcfg.Threads = t
				ppm, err := measureDecode(sd, sc, kindPPM, tcfg)
				if err != nil {
					return err
				}
				fprintf(tw, "%d\t%d\t%d\t%d\t%.4f\n", m, s, n, t, improvement(trad, ppm))
			}
		}
	}
	return tw.Flush()
}

// runFig8 regenerates Figure 8: decode speed of SD (traditional),
// opt-SD (PPM, T=4) and the RS reference with m+1 parities at
// w = 8/16/32, as n sweeps (r = 16, z = 1).
func runFig8(w io.Writer, cfg Config) error {
	tw := newTabWriter(w)
	fprintf(tw, "m\ts\tn\tSD_MBps\toptSD_MBps\timprovement\tpredicted\tRS8_MBps\tRS16_MBps\tRS32_MBps\n")
	for _, ms := range gridMS(cfg) {
		m, s := ms[0], ms[1]
		for _, n := range gridN(cfg) {
			if m+1 >= n {
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

			rsSpeed := [3]float64{}
			for i, field := range []gf.Field{gf.GF8, gf.GF16, gf.GF32} {
				// "all results of RS code shown in the figure are with m+1".
				rsm, err := rsReference(n, 16, m+1, field, cfg)
				if err != nil {
					return err
				}
				rsSpeed[i] = rsm
			}
			fprintf(tw, "%d\t%d\t%d\t%.1f\t%.1f\t%.4f\t%.4f\t%.1f\t%.1f\t%.1f\n",
				m, s, n, trad.throughputMBps(), ppm.throughputMBps(), improvement(trad, ppm), pred,
				rsSpeed[0], rsSpeed[1], rsSpeed[2])
		}
	}
	return tw.Flush()
}

// rsReference measures the traditional decode speed of RS(n, n-m) in
// the given field for m failed disks.
func rsReference(n, r, m int, field gf.Field, cfg Config) (float64, error) {
	rs, err := codes.NewRSInField(n, r, m, field)
	if err != nil {
		return 0, err
	}
	sc, err := rsWorst(rs, cfg)
	if err != nil {
		return 0, err
	}
	meas, err := measureDecode(rs, sc, kindTraditional, cfg)
	if err != nil {
		return 0, err
	}
	return meas.throughputMBps(), nil
}

func rsWorst(rs *codes.RS, cfg Config) (codes.Scenario, error) {
	rng := newRNG(cfg.Seed + int64(rs.NumStrips()))
	return rs.WorstCaseScenario(rng)
}

// runFig9 regenerates Figure 9: improvement vs stripe size (n = 16,
// r = 16, T = 4, z = 1) for the (m, s) grid. The paper sweeps 2 MB to
// 128 MB; Quick mode scales to 512 KB..8 MB, which shows the same knee.
func runFig9(w io.Writer, cfg Config) error {
	sizes := []int{2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20, 128 << 20}
	if cfg.Quick {
		sizes = []int{512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}
	}
	tw := newTabWriter(w)
	fprintf(tw, "m\ts\tstripe_bytes\timprovement\n")
	for _, ms := range gridMS(cfg) {
		m, s := ms[0], ms[1]
		sd, err := newSD(16, 16, m, s)
		if err != nil {
			return err
		}
		sc, err := sdWorst(sd, 1, cfg)
		if err != nil {
			return err
		}
		for _, size := range sizes {
			scfg := cfg
			scfg.StripeBytes = size
			trad, err := measureDecode(sd, sc, kindTraditional, scfg)
			if err != nil {
				return err
			}
			ppm, err := measureDecode(sd, sc, kindPPM, scfg)
			if err != nil {
				return err
			}
			fprintf(tw, "%d\t%d\t%d\t%.4f\n", m, s, size, improvement(trad, ppm))
		}
	}
	return tw.Flush()
}

// runFig10 regenerates Figure 10 with the documented substitution: the
// paper's three CPUs (4, 6 and 8 cores) become GOMAXPROCS caps on this
// host, exercising the same "improvement is CPU-independent" claim.
func runFig10(w io.Writer, cfg Config) error {
	cores := []int{4, 6, 8}
	host := runtime.NumCPU()
	tw := newTabWriter(w)
	fprintf(tw, "cores\tm\ts\tn\timprovement\n")
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, c := range cores {
		if c > host {
			fprintf(tw, "%d\t-\t-\t-\tskipped (host has %d cores)\n", c, host)
			continue
		}
		runtime.GOMAXPROCS(c)
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
				trad, err := measureDecode(sd, sc, kindTraditional, cfg)
				if err != nil {
					return err
				}
				ppm, err := measureDecode(sd, sc, kindPPM, cfg)
				if err != nil {
					return err
				}
				fprintf(tw, "%d\t%d\t%d\t%d\t%.4f\n", c, m, s, n, improvement(trad, ppm))
			}
		}
	}
	return tw.Flush()
}

// predictedImprovement is the deterministic, host-independent part of
// the speedup: the serial cost reduction C1/C4 - 1 from the §III-B
// model. On a single-core host the measured improvement converges to
// this; on multi-core hosts the parallel phase adds the rest (ideally
// up to sum(c_i) - c_max of the group-decode time, §III-C). It divides
// by the paper's C4 whatever Auto picks, so the figures stay the
// paper's.
func predictedImprovement(c codes.Code, sc codes.Scenario) (float64, error) {
	plan, err := core.BuildPlan(c, sc, core.StrategyAuto)
	if err != nil {
		return 0, err
	}
	if plan.Costs.C4 <= 0 {
		return 0, nil
	}
	return float64(plan.Costs.C1)/float64(plan.Costs.C4) - 1, nil
}
