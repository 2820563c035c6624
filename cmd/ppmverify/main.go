// Command ppmverify runs the symbolic plan verifier over the standard
// code zoo: every decode plan, repair plan, xorplan XOR program,
// kernel row-block lowering and delta-parity updater the production
// paths build, across every decodable single- and double-failure
// scenario (plus seeded random maximum-tolerance ones), proven
// algebraically equal to their source coefficient matrices.
//
// Usage:
//
//	ppmverify [-backends list] [-extra n] [-seed n] [-json] [-o file]
//
// Backends select the kernel configuration per sweep leg: "hardware"
// (GFNI affine kernels where the CPU has them), "portable" (table row
// kernels), "xorplan" (the forced XOR-program backend). The exit
// status is 1 when any finding is reported, so `make verify-plans`
// fails the build on an unprovable program; each finding pinpoints the
// artifact, the failed pass, and the offending op index.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/planverify"
)

// leg is one backend configuration of the sweep.
type leg struct {
	name    string
	affine  bool
	xorplan kernel.XorplanMode
}

var legs = map[string]leg{
	"hardware": {name: "hardware", affine: true, xorplan: kernel.XorplanOff},
	"portable": {name: "portable", affine: false, xorplan: kernel.XorplanOff},
	"xorplan":  {name: "xorplan", affine: false, xorplan: kernel.XorplanOn},
}

// report is the JSON document -json emits (and -o uploads from CI).
type report struct {
	Backends []string                         `json:"backends"`
	Stats    map[string]planverify.SweepStats `json:"stats"`
	Findings []planverify.Finding             `json:"findings"`
}

func main() {
	backends := flag.String("backends", "hardware,portable,xorplan", "comma-separated sweep legs: hardware, portable, xorplan")
	extra := flag.Int("extra", 4, "random maximum-tolerance scenarios per code")
	seed := flag.Int64("seed", 1, "seed for the random scenarios")
	jsonOut := flag.Bool("json", false, "emit the findings report as JSON")
	outPath := flag.String("o", "", "write output to file instead of stdout")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "ppmverify: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppmverify: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		out = f
	}

	// Findings starts non-nil so a clean run encodes as [] not null.
	rep := report{Stats: make(map[string]planverify.SweepStats), Findings: []planverify.Finding{}}
	for _, name := range strings.Split(*backends, ",") {
		name = strings.TrimSpace(name)
		l, ok := legs[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "ppmverify: unknown backend %q (want hardware, portable or xorplan)\n", name)
			os.Exit(2)
		}
		zoo, err := planverify.StandardZoo()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppmverify: building zoo: %v\n", err)
			os.Exit(2)
		}
		prevAffine := gf.SetAffineKernels(l.affine)
		prevMode := kernel.SetXorplanMode(l.xorplan)
		fs, stats := planverify.Sweep(zoo, *seed, *extra)
		label := l.name
		if l.affine && !gf.AffineKernels() {
			label += " (GFNI unavailable: ran portable kernels)"
		}
		kernel.SetXorplanMode(prevMode)
		gf.SetAffineKernels(prevAffine)
		rep.Backends = append(rep.Backends, label)
		rep.Stats[l.name] = stats
		for i := range fs {
			fs[i].Detail = fmt.Sprintf("backend=%s %s", l.name, fs[i].Detail)
		}
		rep.Findings = append(rep.Findings, fs...)
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "ppmverify: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range rep.Findings {
			fmt.Fprintln(out, f)
		}
		for _, b := range rep.Backends {
			name := strings.SplitN(b, " ", 2)[0]
			s := rep.Stats[name]
			fmt.Fprintf(out, "ppmverify: backend %s: proved %d plans, %d repairs, %d programs, %d row-block sets, %d updaters over %d scenarios\n",
				b, s.Plans, s.Repairs, s.Programs, s.Blocks, s.Updaters, s.Scenarios)
		}
	}
	if len(rep.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "ppmverify: %d finding(s)\n", len(rep.Findings))
		os.Exit(1)
	}
}
