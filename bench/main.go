// Command bench is the repository benchmark. It runs one of four
// workloads against the library — rebuild, ingest, degraded-io and
// serve — checks every output against golden CRC-32C checksums, and
// prints each metric by name and unit, then one JSON result line:
//
//	{"correct": true, "attempted": 712, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) runs the same workload with spans recorded around the
// library calls, replays the workload's plan layer by layer, and reports
// the per-layer metrics. BENCHMARK.json at the repository root lists
// both sets, the workloads and the regression bounds; README.md in this
// directory explains them.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload rebuild -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload all -seconds 5
//	bash bench/run.sh -workload serve -trace 1 -spans spans.json
//	bash bench/run.sh -workload serve -record head.jsonl
//	bash bench/run.sh -compare base.jsonl head.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"

	"ppm/internal/gf"
	"ppm/internal/kernel"
)

// hostInfo is the host block every run records.
type hostInfo struct {
	GOMAXPROCS    int               `json:"gomaxprocs"`
	NumCPU        int               `json:"num_cpu"`
	GFNIAVX512    bool              `json:"gfni_avx512"`
	VectorISA     string            `json:"vector_isa"`
	KernelBackend string            `json:"kernel_backend"`
	GoVersion     string            `json:"go_version"`
	Env           map[string]string `json:"env,omitempty"`
}

func host() hostInfo {
	h := hostInfo{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		GFNIAVX512:    gf.AffineKernels(),
		VectorISA:     map[int]string{gf.VecNone: "none", gf.VecAVX2: "avx2", gf.VecAVX512: "avx512"}[gf.VectorISALevel()],
		KernelBackend: activeBackend(),
		GoVersion:     runtime.Version(),
	}
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "PPM_") || strings.HasPrefix(kv, "GOGC=") || strings.HasPrefix(kv, "GOMAXPROCS=") {
			if h.Env == nil {
				h.Env = map[string]string{}
			}
			k, v, _ := strings.Cut(kv, "=")
			h.Env[k] = v
		}
	}
	return h
}

// activeBackend names the kernel backend a matrix compiled now uses.
func activeBackend() string {
	switch {
	case kernel.XorplanActive():
		return "xorplan"
	case gf.AffineKernels():
		return "affine"
	}
	return "table"
}

// record is one run as -record stores it and -compare reads it.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    bool     `json:"trace"`
	Host     hostInfo `json:"host"`
	result
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: rebuild, ingest, degraded-io, serve, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 20, "seconds of measured load per run")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		spans   = flag.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
		rec     = flag.String("record", "", "append the run's record as one JSON line to this file, for -compare")
		compare = flag.Bool("compare", false, "compare two record files: -compare base.jsonl head.jsonl")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds -compare applies")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(*spec, flag.Args(), os.Stdout))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds < 1 || *seconds > 600 {
		fatalf("-seconds must be between 1 and 600")
	}
	h := host()
	hj, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hj)

	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		o := runOpts{workload: n, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}
		res, err := runWorkload(o, os.Stdout)
		if err != nil {
			fatalf("%v", err)
		}
		sanitize(res.Metrics)
		if *rec != "" {
			if err := appendRecord(*rec, record{n, *seed, *seconds, o.trace, h, res}); err != nil {
				fatalf("-record: %v", err)
			}
		}
		if len(names) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[n+"/"+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

// sanitize replaces values JSON cannot carry (a ratio over an empty
// measurement) with 0 and says so.
func sanitize(ms map[string]metric) {
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "bench: metric %s has no value; reporting 0\n", k)
			m.Value = 0
			ms[k] = m
		}
	}
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
