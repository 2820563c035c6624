package harness

import (
	"io"

	"ppm/internal/codes"
	"ppm/internal/workload"
)

// runDegraded simulates degraded-read traffic (extension): one data
// block is transiently unavailable and a uniform read trace hits the
// volume; the table contrasts LRC's local repair against RS's k-wide
// repair and an SD stripe-row repair, in both reconstruction width
// (mult_XORs per degraded read) and latency percentiles. This is the
// §I motivation ("transient data unavailable occupy 90% of data center
// failure events") made measurable.
func runDegraded(w io.Writer, cfg Config) error {
	const (
		numStripes = 8
		reads      = 400
	)
	type volCase struct {
		name string
		code codes.Code
		disk int
	}
	lrc, err := codes.NewLRC(12, 3, 2)
	if err != nil {
		return err
	}
	rs, err := codes.NewRS(17, 1, 5)
	if err != nil {
		return err
	}
	sd, err := newSD(8, 16, 2, 2)
	if err != nil {
		return err
	}
	cases := []volCase{
		{"LRC(12,3,2)", lrc, 2},
		{"RS(17,12)", rs, 2},
		{"SD(8,16,2,2)", sd, 2},
	}

	sectorSize := cfg.StripeBytes / 256
	sectorSize -= sectorSize % 4
	if sectorSize < 4 {
		sectorSize = 4
	}

	tw := newTabWriter(w)
	fprintf(tw, "code\ttrace\treads\tdegraded\tops_per_read\thealthy_p50\tdegraded_p50\tdegraded_p99\n")
	for _, cse := range cases {
		total := codes.TotalSectors(cse.code)
		traces := []struct {
			name  string
			reads []workload.Read
		}{
			{"uniform", workload.UniformTrace(numStripes, total, reads, cfg.Seed+7)},
			{"zipf", workload.ZipfTrace(numStripes, total, reads, cfg.Seed+11)},
		}
		for _, tr := range traces {
			v, err := workload.NewVolume(cse.code, numStripes, sectorSize, []int{cse.disk}, cfg.Seed)
			if err != nil {
				return err
			}
			res, err := v.Serve(tr.reads)
			if err != nil {
				return err
			}
			fprintf(tw, "%s\t%s\t%d\t%d\t%.1f\t%v\t%v\t%v\n",
				cse.name, tr.name, res.Reads, res.Degraded, res.Repair.MultXORsPerOp,
				res.Healthy.P50, res.Repair.P50, res.Repair.P99)
		}
	}
	return tw.Flush()
}
