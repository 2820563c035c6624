package harness

import (
	"io"

	"ppm/internal/codes"
	"ppm/internal/repair"
)

// runDegraded tabulates degraded reads (extension): one data disk is
// transiently unavailable, and a read of one of its sectors runs the
// repair planner's minimal-read plan. The table contrasts LRC's local
// repair against RS's k-wide repair and an SD stripe-row repair, by the
// survivors the plan reads out of a full-stripe read and its mult_XORs.
// This is the §I motivation ("transient data unavailable occupy 90% of
// data center failure events") made exact; nothing here is timed. The
// latency of such reads is the bench/ ledger's degraded-io workload.
func runDegraded(w io.Writer, _ Config) error {
	const lost = 2
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
	cases := []struct {
		name string
		code codes.Code
	}{
		{"LRC(12,3,2)", lrc},
		{"RS(17,12)", rs},
		{"SD(8,16,2,2)", sd},
	}

	tw := newTabWriter(w)
	fprintf(tw, "code\tlost_disk\tread\tfull_read\tread_fraction\tmult_xors\n")
	for _, cse := range cases {
		// Every sector of the lost disk is a baseline erasure; the read
		// wants the first (row 0).
		n := cse.code.NumStrips()
		var faulty []int
		for i := 0; i < cse.code.NumRows(); i++ {
			faulty = append(faulty, i*n+lost)
		}
		sc, err := codes.NewScenario(cse.code, faulty)
		if err != nil {
			return err
		}
		plan, err := repair.NewPlanner(cse.code).Plan(sc, []int{lost})
		if err != nil {
			return err
		}
		c := plan.Cost
		fprintf(tw, "%s\t%d\t%d\t%d\t%.3f\t%d\n",
			cse.name, lost, c.ReadSectors, c.FullReadSectors, c.ReadFraction(), c.MultXORs)
	}
	return tw.Flush()
}
