package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ppm/internal/codes"
	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/matrix"
)

// faultySetFromMask converts a 16-bit mask into sector indices for the
// paper's 4x4 instance.
func faultySetFromMask(mask uint16) []int {
	var faulty []int
	for i := 0; i < 16; i++ {
		if mask&(1<<i) != 0 {
			faulty = append(faulty, i)
		}
	}
	return faulty
}

// TestQuickPPMMatchesTraditional: for arbitrary decodable failure sets
// on the worked-example instance, PPM and the scalar oracle's
// traditional decode recover identical bytes, and PPM's measured
// operation count equals the plan's predicted cost.
func TestQuickPPMMatchesTraditional(t *testing.T) {
	sd := paperSD(t)
	base := encodedStripe(t, sd, 32, 501)

	prop := func(mask uint16, scribbleSeed int64) bool {
		faulty := faultySetFromMask(mask)
		if len(faulty) > 5 {
			return true // beyond any code's reach; covered elsewhere
		}
		sc, err := codes.NewScenario(sd, faulty)
		if err != nil {
			return false
		}
		if !codes.Decodable(sd, sc) {
			// Both pipelines must refuse.
			_, errP := BuildPlan(sd, sc, StrategyPPM)
			errT := scalarDecode(sd, base.Clone(), sc)
			return errP != nil && errT != nil
		}

		ppmSt := base.Clone()
		ppmSt.Scribble(scribbleSeed, sc.Faulty)
		var stats kernel.Stats
		dec := NewDecoder(sd, WithThreads(3), WithStats(&stats))
		if err := dec.Decode(ppmSt, sc); err != nil {
			return false
		}

		tradSt := base.Clone()
		tradSt.Scribble(scribbleSeed, sc.Faulty)
		if err := scalarDecode(sd, tradSt, sc); err != nil {
			return false
		}

		if !ppmSt.Equal(base) || !tradSt.Equal(base) {
			return false
		}
		plan, err := BuildPlan(sd, sc, StrategyPPM)
		if err != nil {
			return false
		}
		return stats.MultXORs() == plan.Costs.Chosen
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(502))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickPartitionInvariants: for random parity-check matrices and
// failure sets, the partition always satisfies its structural contract.
func TestQuickPartitionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(503))

	prop := func(rowsRaw, colsRaw uint8, mask uint16, density uint8) bool {
		rows := 1 + int(rowsRaw%8)
		cols := 2 + int(colsRaw%10)
		h := matrix.New(gf.GF8, rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if rng.Intn(100) < 30+int(density%50) {
					h.Set(i, j, uint32(1+rng.Intn(255)))
				}
			}
		}
		var faulty []int
		for j := 0; j < cols; j++ {
			if mask&(1<<j) != 0 {
				faulty = append(faulty, j)
			}
		}
		lt := BuildLogTable(h, faulty)
		pt := BuildPartition(lt, faulty)

		// 1. Groups are square: |rows| == |faulty columns|.
		// 2. Group faulty columns are pairwise disjoint.
		// 3. No row appears twice (across groups and rest).
		// 4. Group columns plus rest columns partition the faulty set.
		// 5. Every group coefficient at its faulty columns is nonzero.
		seenCols := map[int]bool{}
		seenRows := map[int]bool{}
		for _, g := range pt.Groups {
			if len(g.Rows) != len(g.FaultyCols) {
				return false
			}
			for _, c := range g.FaultyCols {
				if seenCols[c] {
					return false
				}
				seenCols[c] = true
			}
			for _, r := range g.Rows {
				if seenRows[r] {
					return false
				}
				seenRows[r] = true
				for _, c := range g.FaultyCols {
					if h.At(r, c) == 0 {
						return false
					}
				}
			}
		}
		for _, r := range pt.RestRows {
			if seenRows[r] {
				return false
			}
			seenRows[r] = true
		}
		for _, c := range pt.RestFaulty {
			if seenCols[c] {
				return false
			}
			seenCols[c] = true
		}
		if len(seenCols) != len(faulty) {
			return false
		}
		for _, c := range faulty {
			if !seenCols[c] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(504))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickLogTableInvariants: t_i always equals |l_i|, l_i is sorted
// and a subset of the faulty set, and every listed column really is
// nonzero in that row.
func TestQuickLogTableInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	prop := func(mask uint16) bool {
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(12)
		h := matrix.New(gf.GF8, rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if rng.Intn(2) == 0 {
					h.Set(i, j, uint32(1+rng.Intn(255)))
				}
			}
		}
		var faulty []int
		for j := 0; j < cols; j++ {
			if mask&(1<<j) != 0 {
				faulty = append(faulty, j)
			}
		}
		lt := BuildLogTable(h, faulty)
		if len(lt.Rows) != rows {
			return false
		}
		inFaulty := map[int]bool{}
		for _, c := range faulty {
			inFaulty[c] = true
		}
		for i, lr := range lt.Rows {
			if lr.Row != i || lr.T != len(lr.L) {
				return false
			}
			prev := -1
			for _, c := range lr.L {
				if c <= prev || !inFaulty[c] || h.At(i, c) == 0 {
					return false
				}
				prev = c
			}
			// Completeness: every nonzero faulty-column entry is listed.
			count := 0
			for _, c := range faulty {
				if h.At(i, c) != 0 {
					count++
				}
			}
			if count != lr.T {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(506))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
