package decode

import (
	"bytes"
	"fmt"

	"ppm/internal/codes"
	"ppm/internal/stripe"
)

// Silent-corruption scrubbing (extension). The paper motivates SD/PMDS
// with latent sector errors *and* data corruption ([12], [13]): a
// sector can return wrong bytes without any I/O error, so nothing marks
// it faulty. The parity-check method localises a single corrupted
// sector from the syndrome alone: if sector c was perturbed by delta,
//
//	syndrome_i = H[i][c] * delta          for every check row i,
//
// so the corrupted column is the unique c whose coefficient pattern is
// consistent with the syndrome across all rows. Once located, the
// sector is recovered as an ordinary single erasure.

// ScrubResult reports what a scrub found.
type ScrubResult struct {
	// Clean is true when the stripe verifies (no corruption).
	Clean bool
	// Located is true when exactly one corrupted sector was identified.
	Located bool
	// Sector is the corrupted sector's global index when Located.
	Sector int
}

// Scrub checks the stripe and, if exactly one sector is silently
// corrupted, locates it. Multi-sector corruption is reported as
// not-locatable (the syndrome is then a mix of columns); callers fall
// back to device-level diagnostics, exactly as real scrubbers do.
//
//ppm:counted scrubbing is outside the paper's encode/decode cost model; no figure consumes its counts
func Scrub(c codes.Code, st *stripe.Stripe) (ScrubResult, error) {
	scratch, err := computeSyndromes(c, st)
	if err != nil {
		return ScrubResult{}, err
	}
	defer scratch.Release()
	syndromes := scratch.Regions()
	anyNonzero := false
	for _, s := range syndromes {
		if !isZero(s) {
			anyNonzero = true
			break
		}
	}
	if !anyNonzero {
		return ScrubResult{Clean: true}, nil
	}
	h := c.ParityCheck()
	f := c.Field()
	size := st.SectorSize()

	// A column "explains" the syndrome when some delta reproduces every
	// row. Localisation needs a *unique* explanation: codes whose H
	// columns are pairwise dependent (e.g. a single parity row) cannot
	// distinguish the sectors a row covers, and a scrub must say so
	// rather than guess.
	delta := make([]byte, size)
	expect := make([]byte, size)
	located := -1
	for col := 0; col < h.Cols(); col++ {
		ref := -1
		for i := 0; i < h.Rows(); i++ {
			if h.At(i, col) != 0 {
				ref = i
				break
			}
		}
		if ref < 0 {
			continue
		}
		f.MulRegion(delta, syndromes[ref], f.Inv(h.At(ref, col)))
		if isZero(delta) {
			continue // this column cannot explain a nonzero syndrome
		}
		match := true
		for i := 0; i < h.Rows() && match; i++ {
			a := h.At(i, col)
			if a == 0 {
				match = isZero(syndromes[i])
				continue
			}
			f.MulRegion(expect, delta, a)
			match = bytes.Equal(expect, syndromes[i])
		}
		if match {
			if located >= 0 {
				return ScrubResult{}, nil // ambiguous: at least two explanations
			}
			located = col
		}
	}
	if located >= 0 {
		return ScrubResult{Located: true, Sector: located}, nil
	}
	return ScrubResult{}, nil
}

// ScrubAndRepair scrubs the stripe and, when a single corrupted sector
// is located, recovers it in place. Returns the scrub result; a located
// sector is already repaired on return.
func ScrubAndRepair(c codes.Code, st *stripe.Stripe, opts Options) (ScrubResult, error) {
	res, err := Scrub(c, st)
	if err != nil || res.Clean || !res.Located {
		return res, err
	}
	sc, err := codes.NewScenario(c, []int{res.Sector})
	if err != nil {
		return res, err
	}
	if err := Decode(c, st, sc, opts); err != nil {
		return res, fmt.Errorf("decode: repairing located sector %d: %w", res.Sector, err)
	}
	return res, nil
}
