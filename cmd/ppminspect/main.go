// Command ppminspect prints the internals PPM derives for a code
// instance and failure scenario: the parity-check matrix, the log
// table, the partition into independent sub-matrices, the C1..C4 cost
// model and the chosen calculation sequences — Figure 3 of the paper,
// for any configuration.
//
// Usage:
//
//	ppminspect -code sd -n 4 -r 4 -m 1 -s 1 -faulty 2,6,10,13,14 -v
//	ppminspect -code sd -n 8 -r 16 -m 2 -s 2 -worst -z 1
//	ppminspect -code lrc -k 12 -l 3 -g 2 -worst
//	ppminspect -code rs -n 8 -r 4 -m 2 -worst
//	ppminspect -code sd -n 8 -r 16 -m 2 -s 2 -encode
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"ppm/internal/codes"
	"ppm/internal/core"
)

func main() {
	var (
		kind   = flag.String("code", "sd", "code family: sd, pmds, lrc, lrcloc, rs, evenodd, rdp")
		n      = flag.Int("n", 4, "disks per stripe (sd/pmds/rs)")
		r      = flag.Int("r", 4, "rows per strip (sd/pmds/rs)")
		m      = flag.Int("m", 1, "coding disks (sd/pmds/rs)")
		s      = flag.Int("s", 1, "coding sectors (sd/pmds)")
		k      = flag.Int("k", 12, "data blocks (lrc)")
		l      = flag.Int("l", 2, "local groups (lrc/lrcloc)")
		g      = flag.Int("g", 2, "global parities (lrc/lrcloc)")
		delta  = flag.Int("delta", 3, "locality δ (lrcloc)")
		prime  = flag.Int("p", 5, "prime parameter (evenodd/rdp)")
		faulty = flag.String("faulty", "", "comma-separated faulty sector indices")
		worst  = flag.Bool("worst", false, "generate a worst-case scenario")
		z      = flag.Int("z", 1, "rows holding the extra sector failures (sd/pmds)")
		seed   = flag.Int64("seed", 1, "scenario RNG seed")
		enc    = flag.Bool("encode", false, "inspect the encoding plan instead")
		strat  = flag.String("strategy", "auto", "auto, ppm, ppm-c3, ppm-folded, whole-normal, whole-matrix-first")
		v      = flag.Bool("v", false, "print the sub-matrices")
		showH  = flag.Bool("H", false, "print the full parity-check matrix")
		audit  = flag.Int("audit", 0, "run a fault-tolerance census up to this many simultaneous failures")
		budget = flag.Int("audit-budget", 20000, "max patterns per census level (samples beyond)")
	)
	flag.Parse()

	code, err := buildCode(*kind, *n, *r, *m, *s, *k, *l, *g, *delta, *prime)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("code: %s\n", code.Name())
	fmt.Printf("geometry: n=%d strips x r=%d rows, H is %s, parity positions %v\n",
		code.NumStrips(), code.NumRows(), code.ParityCheck().Dims(), code.ParityPositions())
	if *showH {
		fmt.Printf("H:\n%s", code.ParityCheck().String())
	}

	if *audit > 0 {
		fmt.Println("\nfault-tolerance census:")
		for t := 1; t <= *audit; t++ {
			res, err := codes.Census(code, t, *budget, *seed)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  %s\n", res)
		}
		return
	}

	sc, err := pickScenario(code, *faulty, *worst, *enc, *z, *seed)
	if err != nil {
		fatal(err)
	}

	strategy, err := parseStrategy(*strat)
	if err != nil {
		fatal(err)
	}
	plan, err := core.BuildPlan(code, sc, strategy)
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	fmt.Print(plan.Describe(*v))
}

func buildCode(kind string, n, r, m, s, k, l, g, delta, prime int) (codes.Code, error) {
	switch kind {
	case "sd":
		return codes.NewSD(n, r, m, s)
	case "pmds":
		return codes.NewPMDS(n, r, m, s)
	case "lrc":
		return codes.NewLRC(k, l, g)
	case "lrcloc":
		return codes.NewLRCLocality(k, l, delta, g)
	case "rs":
		return codes.NewRS(n, r, m)
	case "evenodd":
		return codes.NewEVENODD(prime)
	case "rdp":
		return codes.NewRDP(prime)
	default:
		return nil, fmt.Errorf("unknown code family %q", kind)
	}
}

func pickScenario(code codes.Code, faulty string, worst, enc bool, z int, seed int64) (codes.Scenario, error) {
	switch {
	case enc:
		return codes.EncodingScenario(code), nil
	case faulty != "":
		var idx []int
		for _, part := range strings.Split(faulty, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return codes.Scenario{}, fmt.Errorf("bad -faulty entry %q: %v", part, err)
			}
			idx = append(idx, v)
		}
		return codes.NewScenario(code, idx)
	case worst:
		rng := rand.New(rand.NewSource(seed))
		switch c := code.(type) {
		case *codes.SD:
			return c.WorstCaseScenario(rng, z)
		case *codes.PMDS:
			return c.WorstCaseScenario(rng, z)
		case *codes.LRC:
			return c.WorstCaseScenario(rng)
		case *codes.LRCLocality:
			return c.WorstCaseScenario(rng)
		case *codes.RS:
			return c.WorstCaseScenario(rng)
		case *codes.EVENODD:
			return c.WorstCaseScenario(rng)
		case *codes.RDP:
			return c.WorstCaseScenario(rng)
		}
		return codes.Scenario{}, fmt.Errorf("no worst-case generator for %T", code)
	default:
		return codes.Scenario{}, fmt.Errorf("pick one of -faulty, -worst or -encode")
	}
}

func parseStrategy(s string) (core.Strategy, error) {
	switch s {
	case "auto":
		return core.StrategyAuto, nil
	case "ppm":
		return core.StrategyPPM, nil
	case "ppm-c3":
		return core.StrategyPPMMatrixFirstRest, nil
	case "ppm-folded":
		return core.StrategyPPMFolded, nil
	case "whole-normal":
		return core.StrategyWholeNormal, nil
	case "whole-matrix-first":
		return core.StrategyWholeMatrixFirst, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ppminspect: %v\n", err)
	os.Exit(1)
}
