// Package harness regenerates the paper's evaluation: one experiment
// per data figure (Figures 4-11) plus the headline aggregates, printing
// the same series the paper plots. The cmd/ppmbench binary exposes the
// registry on the command line and EXPERIMENTS.md records paper-vs-
// measured values.
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/decode"
	"ppm/internal/stripe"
)

// Config scales the experiments. The zero value is not usable; start
// from DefaultConfig (CI-friendly) or PaperConfig (the paper's sizes).
type Config struct {
	// StripeBytes is the total stripe size; the paper uses 32 MB.
	StripeBytes int
	// Iterations per measurement; the paper averages 10 runs.
	Iterations int
	// Threads is T for the PPM parallel phase; the paper uses
	// min(4, cores).
	Threads int
	// Seed drives scenario generation.
	Seed int64
	// Quick thins the parameter grids for fast runs.
	Quick bool
}

// DefaultConfig is sized to finish the full registry in a few minutes.
func DefaultConfig() Config {
	return Config{
		StripeBytes: 4 << 20,
		Iterations:  3,
		Threads:     0, // min(4, cores)
		Seed:        1,
		Quick:       true,
	}
}

// PaperConfig mirrors the paper's measurement parameters.
func PaperConfig() Config {
	return Config{
		StripeBytes: 32 << 20,
		Iterations:  10,
		Threads:     4,
		Seed:        1,
		Quick:       false,
	}
}

// Experiment is one reproducible evaluation unit.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, cfg Config) error
}

// Registry lists all experiments in figure order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "fig4", Title: "Cost ratios C2/C1, C3/C1, C4/C1 vs n (r=16, z=1)", Run: runFig4},
		{ID: "fig5", Title: "C4/C1 vs n for z in 1..3 (s=3, r=16)", Run: runFig5},
		{ID: "fig6", Title: "C4/C1 vs n for r in 4..24", Run: runFig6},
		{ID: "fig7", Title: "PPM decode improvement vs thread count T", Run: runFig7},
		{ID: "fig8", Title: "PPM improvement for SD vs n; RS(m+1) reference", Run: runFig8},
		{ID: "fig9", Title: "PPM improvement vs stripe size", Run: runFig9},
		{ID: "fig10", Title: "PPM improvement across core counts (CPU substitution)", Run: runFig10},
		{ID: "fig11", Title: "PPM improvement for LRC vs storage cost", Run: runFig11},
		{ID: "headline", Title: "Aggregate improvements (max/avg, 2-thread)", Run: runHeadline},
		{ID: "encode", Title: "Encoding speed, traditional vs PPM (extension)", Run: runEncodeExp},
		{ID: "ablation", Title: "Mechanism ablation: trad / block-par / ppm-T1 / ppm (extension)", Run: runAblation},
		{ID: "degraded", Title: "Degraded-read repair width: LRC vs RS vs SD (extension)", Run: runDegraded},
		{ID: "chaos", Title: "Chaos storm: checksummed degraded reads under injected faults (extension)", Run: runChaos},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------------
// Measurement plumbing.

// measurement is one decode timing: seconds per stripe decode.
type measurement struct {
	seconds float64
	bytes   int
}

// throughputMBps is decode speed in MB/s over the whole stripe.
func (m measurement) throughputMBps() float64 {
	return float64(m.bytes) / 1e6 / m.seconds
}

// improvement is the paper's improvement ratio: PPM speed over
// traditional speed, minus one (210.81% prints as 2.1081).
func improvement(trad, ppm measurement) float64 {
	return trad.seconds/ppm.seconds - 1
}

// decoderKind selects which pipeline a measurement drives.
type decoderKind int

const (
	kindTraditional decoderKind = iota // whole-matrix Normal sequence (C1)
	kindPPM                            // partition + parallel + C4 sequence
)

// measureDecode times repeated in-place decodes of the scenario. Each
// iteration re-corrupts the faulty sectors and decodes them; planning
// (including matrix inversions) is inside the timed region for both
// pipelines, as in the paper's end-to-end measurement.
func measureDecode(c codes.Code, sc codes.Scenario, kind decoderKind, cfg Config) (measurement, error) {
	st, err := stripe.ForCode(c, cfg.StripeBytes)
	if err != nil {
		return measurement{}, err
	}
	st.FillDataRandom(cfg.Seed, codes.DataPositions(c))
	if err := decode.Encode(c, st, decode.Options{}); err != nil {
		return measurement{}, err
	}

	iters := cfg.Iterations
	if iters < 1 {
		iters = 1
	}
	var dec *core.Decoder
	if kind == kindPPM {
		dec = core.NewDecoder(c, core.WithThreads(cfg.Threads), core.WithStrategy(core.StrategyPPM))
	}

	// One warm-up pass (tables, page faults) plus iters timed passes.
	// The paper reports the mean of 10 runs on dedicated hardware; on a
	// shared host the minimum is the robust estimator of the same
	// quantity, so that is what the harness records.
	best := time.Duration(0)
	for i := -1; i < iters; i++ {
		st.Scribble(cfg.Seed+int64(i), sc.Faulty)
		start := time.Now()
		switch kind {
		case kindTraditional:
			err = decode.Decode(c, st, sc, decode.Options{})
		case kindPPM:
			err = dec.Decode(st, sc)
		}
		elapsed := time.Since(start)
		if err != nil {
			return measurement{}, err
		}
		if i >= 0 && (best == 0 || elapsed < best) {
			best = elapsed
		}
	}
	return measurement{
		seconds: best.Seconds(),
		bytes:   st.TotalBytes(),
	}, nil
}

// measureEncode is measureDecode for the encoding special case.
func measureEncode(c codes.Code, kind decoderKind, cfg Config) (measurement, error) {
	return measureDecode(c, codes.EncodingScenario(c), kind, cfg)
}

// sdWorst draws a decodable SD worst case with the config seed.
func sdWorst(sd *codes.SD, z int, cfg Config) (codes.Scenario, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(sd.NumStrips()*1000+sd.M()*100+sd.S()*10+z)))
	return sd.WorstCaseScenario(rng, z)
}

// newTabWriter standardises the table output.
func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

// gridN returns the n sweep, thinned under Quick.
func gridN(cfg Config) []int {
	if cfg.Quick {
		return []int{6, 11, 16, 21}
	}
	var ns []int
	for n := 6; n <= 24; n++ {
		ns = append(ns, n)
	}
	return ns
}

// gridMS returns the (m, s) grid, thinned under Quick.
func gridMS(cfg Config) [][2]int {
	if cfg.Quick {
		return [][2]int{{1, 1}, {2, 2}, {3, 3}}
	}
	var out [][2]int
	for m := 1; m <= 3; m++ {
		for s := 1; s <= 3; s++ {
			out = append(out, [2]int{m, s})
		}
	}
	return out
}

// capThreads bounds a thread sweep by the host's cores, keeping at
// least the paper's 1..4 range.
func capThreads(cfg Config) []int {
	max := runtime.NumCPU()
	if max > 8 {
		max = 8
	}
	if max < 4 {
		max = 4
	}
	var ts []int
	for t := 1; t <= max; t++ {
		ts = append(ts, t)
	}
	if cfg.Quick {
		ts = []int{1, 2, 4}
		if max >= 6 {
			ts = append(ts, 6)
		}
	}
	sort.Ints(ts)
	return ts
}

func fprintf(w io.Writer, format string, args ...any) {
	if _, err := fmt.Fprintf(w, format, args...); err != nil {
		panic(err) // writer failures are programmer errors in this harness
	}
}
