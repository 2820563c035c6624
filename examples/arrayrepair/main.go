// Arrayrepair simulates the event the paper's introduction motivates:
// a disk array suffers simultaneous whole-disk failures plus scattered
// latent sector errors ("how today's storage systems actually fail",
// Plank et al. FAST'13), and the system rebuilds everything on line.
// Every stripe loses the same columns when a disk dies, so the stripes
// that lost only the dead disks form one batch that one compiled PPM
// plan rebuilds (DecodeBatch), each stripe's independent sub-matrices
// decoding in parallel. The few stripes with extra latent sector errors
// go through a Decoder, whose plan cache builds one plan per distinct
// failure signature.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"

	"ppm"
)

func main() {
	// SD^{2,2}_{8,16}: tolerates 2 dead disks + 2 bad sectors per stripe.
	code, err := ppm.NewSD(8, 16, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	n := code.NumStrips()

	const (
		numStripes = 64
		sectorSize = 8 << 10 // 8 KiB sectors -> 1 MiB strips, 64 MiB array
	)
	array := make([]*ppm.Stripe, numStripes)
	pristine := make([]*ppm.Stripe, numStripes)
	for i := range array {
		st, err := ppm.NewStripe(n, code.NumRows(), sectorSize)
		if err != nil {
			log.Fatal(err)
		}
		st.FillDataRandom(int64(1+i), ppm.DataPositions(code))
		array[i] = st
	}
	if err := ppm.EncodeBatch(code, array, ppm.StreamConfig{}); err != nil {
		log.Fatal(err)
	}
	for i, st := range array {
		pristine[i] = st.Clone()
	}
	fmt.Printf("array: %d stripes of %s, %.0f MB total\n",
		numStripes, code.Name(), float64(numStripes*array[0].TotalBytes())/1e6)

	// Catastrophe: disks 2 and 5 die (a replacement drive starts with
	// garbage, not zeros)...
	var diskSectors []int
	for _, d := range []int{2, 5} {
		for row := 0; row < code.NumRows(); row++ {
			diskSectors = append(diskSectors, row*n+d)
		}
	}
	for i, st := range array {
		st.Scribble(int64(1000+i), diskSectors)
	}
	// ...and a scrub finds latent sector errors on three other stripes.
	rng := rand.New(rand.NewSource(2))
	extra := map[int][]int{}
	for _, idx := range []int{7, 20, 41} {
		for len(extra[idx]) < 2 {
			s := rng.Intn(code.NumRows() * n)
			if s%n != 2 && s%n != 5 && !slices.Contains(extra[idx], s) { // not on the dead disks
				extra[idx] = append(extra[idx], s)
			}
		}
		array[idx].Scribble(int64(2000+idx), extra[idx])
	}
	fmt.Println("failure: disks 2 and 5 dead; latent sector errors on stripes 7, 20, 41")
	if ok, err := ppm.Verify(code, array[0]); err != nil || ok {
		log.Fatalf("verification should fail while degraded: ok=%v err=%v", ok, err)
	}

	// The disk-only stripes: one scenario, one batch, one plan.
	diskOnly, err := ppm.NewScenario(code, diskSectors)
	if err != nil {
		log.Fatal(err)
	}
	var stats ppm.Stats
	var batch []*ppm.Stripe
	for i, st := range array {
		if extra[i] == nil {
			batch = append(batch, st)
		}
	}
	if err := ppm.DecodeBatch(code, diskOnly, batch, ppm.StreamConfig{Stats: &stats}); err != nil {
		log.Fatal(err)
	}

	// The stripes with extra sector errors: a scenario each, through the
	// Decoder's plan cache.
	dec := ppm.NewDecoder(code, ppm.WithThreads(4), ppm.WithStats(&stats))
	for i, st := range array {
		if extra[i] == nil {
			continue
		}
		sc, err := ppm.NewScenario(code, append(append([]int(nil), diskSectors...), extra[i]...))
		if err != nil {
			log.Fatal(err)
		}
		if err := dec.Decode(st, sc); err != nil {
			log.Fatalf("stripe %d: %v", i, err)
		}
	}
	_, plans := dec.PlanCacheStats()
	fmt.Printf("rebuild: %d stripes in one batch with one plan, %d through a Decoder with %d plan(s); %d mult_XORs\n",
		len(batch), numStripes-len(batch), plans, stats.MultXORs())

	for i, st := range array {
		ok, err := ppm.Verify(code, st)
		if err != nil || !ok {
			log.Fatalf("stripe %d: post-repair verification failed: ok=%v err=%v", i, ok, err)
		}
		if !st.Equal(pristine[i]) {
			log.Fatalf("stripe %d: repaired bytes differ from the originals", i)
		}
	}
	fmt.Println("post-repair parity check clean; all stripes byte-identical to the originals")
}
