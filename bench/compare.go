package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// specMetric is one end-to-end metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json -compare reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// loadRecords reads the untraced run records of a -record file.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// verdict compares one (metric, workload) pair. base and head are the
// runs' values; spread is the wider side's quartile distance over its
// median.
func verdict(m specMetric, base, head []float64) (change, spread float64, v string) {
	if len(base) == 0 || len(head) == 0 {
		return math.NaN(), math.NaN(), "unresolved"
	}
	bm, hm := median(base), median(head)
	for _, side := range [][]float64{base, head} {
		q1, q2, q3 := quartiles(side)
		spread = math.Max(spread, (q3-q1)/math.Abs(q2))
	}
	change = (hm - bm) / math.Abs(bm)
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if (m.Better == "higher" && h <= b) || (m.Better != "higher" && h >= b) {
				allBetter = false
			}
		}
	}
	switch {
	case spread > m.Bound && allBetter:
		v = "improved"
	case spread > m.Bound:
		v = "unresolved"
	case worse > m.Bound:
		v = "regressed"
	case -worse > m.Bound:
		v = "improved"
	default:
		v = "unchanged"
	}
	return change, spread, v
}

// compareMain implements -compare: for every (end-to-end metric,
// workload) pair it compares the median of the head runs with the
// median of the base runs against the metric's bound, and it compares
// the error rates. It returns the exit code: 1 on a regression or a
// higher error rate, 2 on bad input.
func compareMain(specPath string, args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare needs two record files: base.jsonl head.jsonl")
		return 2
	}
	s, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	sides := make([]map[string][]record, 2)
	for i, path := range args {
		recs, err := loadRecords(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		sides[i] = map[string][]record{}
		for _, r := range recs {
			sides[i][r.Workload] = append(sides[i][r.Workload], r)
		}
	}
	var workloads []string
	for w := range sides[0] {
		workloads = append(workloads, w)
	}
	for w := range sides[1] {
		if _, ok := sides[0][w]; !ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)

	code := 0
	fmt.Fprintf(out, "%-12s %-10s %5s %5s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "base", "head", "base median", "head median", "change", "spread", "bound", "verdict")
	for _, w := range workloads {
		base, head := sides[0][w], sides[1][w]
		for _, m := range s.EndToEnd {
			bv, hv := values(base, m.Name), values(head, m.Name)
			change, spread, v := verdict(m, bv, hv)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(out, "%-12s %-10s %5d %5d %14.6g %14.6g %+8.1f%% %7.1f%% %6.0f%%  %s\n",
				w, m.Name, len(bv), len(hv), median(bv), median(hv), 100*change, 100*spread, 100*m.Bound, v)
		}
		be, he := errorRate(base), errorRate(head)
		v := "unchanged"
		if he > be {
			v, code = "regressed", 1
		}
		fmt.Fprintf(out, "%-12s %-10s %5d %5d %14.6g %14.6g %9s %8s %7s  %s\n",
			w, "error_rate", len(base), len(head), be, he, "", "", "", v)
	}
	return code
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func errorRate(recs []record) float64 {
	var a, f int64
	for _, r := range recs {
		a += r.Attempted
		f += r.Failed
	}
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}
