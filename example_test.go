package ppm_test

import (
	"fmt"
	"log"

	"ppm"
)

// ExampleNewSD shows the basic encode → fail → decode → verify cycle.
func ExampleNewSD() {
	code, err := ppm.NewSD(6, 4, 2, 1)
	if err != nil {
		log.Fatal(err)
	}
	st, err := ppm.StripeForCode(code, 64<<10)
	if err != nil {
		log.Fatal(err)
	}
	st.FillDataRandom(1, ppm.DataPositions(code))

	dec := ppm.NewDecoder(code, ppm.WithThreads(4))
	if err := dec.Encode(st); err != nil {
		log.Fatal(err)
	}
	pristine := st.Clone()

	// Lose both coding disks plus a data sector.
	sc, err := ppm.NewScenario(code, []int{0, 4, 5, 10, 11, 16, 17, 22, 23})
	if err != nil {
		log.Fatal(err)
	}
	st.Erase(sc.Faulty)
	if err := dec.Decode(st, sc); err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovered:", st.Equal(pristine))
	// Output: recovered: true
}

// ExampleBuildPlan inspects the paper's worked example: the partition,
// the four calculation-sequence costs of §III-B, and the folded plan's
// C5, which Auto picks.
func ExampleBuildPlan() {
	code, err := ppm.NewSD(4, 4, 1, 1)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := ppm.NewScenario(code, []int{2, 6, 10, 13, 14})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := ppm.BuildPlan(code, sc, ppm.StrategyAuto)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("p=%d C1=%d C2=%d C3=%d C4=%d C5=%d chosen=%d (%v)\n",
		plan.Partition.P(), plan.Costs.C1, plan.Costs.C2, plan.Costs.C3, plan.Costs.C4, plan.Costs.C5,
		plan.Costs.Chosen, plan.Costs.Strategy)
	// Output: p=3 C1=35 C2=31 C3=37 C4=29 C5=26 chosen=26 (ppm-folded)
}

// ExampleCensus reproduces the Azure LRC fault-tolerance profile.
func ExampleCensus() {
	lrc, err := ppm.NewLRC(12, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	res, err := ppm.Census(lrc, 4, 2000, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	// Output: 4-failure census: 1557/1820 decodable (85.55%), exhaustive
}

// ExampleNewUpdater patches parity after a small write instead of
// re-encoding the stripe.
func ExampleNewUpdater() {
	code, err := ppm.NewLRC(12, 3, 2)
	if err != nil {
		log.Fatal(err)
	}
	st, err := ppm.StripeForCode(code, 68<<10)
	if err != nil {
		log.Fatal(err)
	}
	st.FillDataRandom(1, ppm.DataPositions(code))
	if err := ppm.TraditionalEncode(code, st, nil); err != nil {
		log.Fatal(err)
	}

	u, err := ppm.NewUpdater(code)
	if err != nil {
		log.Fatal(err)
	}
	cost, err := u.UpdateCost(7)
	if err != nil {
		log.Fatal(err)
	}
	fresh := make([]byte, st.SectorSize())
	if err := u.Update(st, 7, fresh, nil); err != nil {
		log.Fatal(err)
	}
	ok, err := ppm.Verify(code, st)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parities touched: %d, still a codeword: %v\n", cost, ok)
	// Output: parities touched: 3, still a codeword: true
}
