// Package ppm is a Go implementation of the Partitioned and Parallel
// Matrix (PPM) algorithm from "PPM: A Partitioned and Parallel Matrix
// Algorithm to Accelerate Encoding/Decoding Process of Asymmetric Parity
// Erasure Codes" (Li et al., ICPP 2015), together with everything the
// algorithm runs on: GF(2^8/16/32) arithmetic, parity-check matrix
// algebra, and the SD, PMDS, LRC and RS code constructions the paper
// evaluates.
//
// # Background
//
// Erasure-coded storage systems recover lost sectors by the parity-check
// matrix method: extract the faulty columns of H into F and the
// surviving columns into S, invert F, and compute the lost blocks as
// BF = F^-1 * S * BS. For asymmetric parity codes (SD, PMDS, LRC) this
// traditional process is serial and wasteful: it treats all faulty
// blocks as one unit even when some of them — the independent faulty
// blocks — are recoverable from survivors alone.
//
// PPM partitions H into p independent sub-matrices plus a remainder,
// decodes the p sub-matrices on T worker goroutines, optimises each
// matrix-decode's calculation order (Normal vs MatrixFirst), and merges
// the recovered blocks into the remaining decode.
//
// # Quick start
//
//	code, err := ppm.NewSD(8, 16, 2, 2) // 8 disks, 16 rows, 2 coding disks, 2 coding sectors
//	st, err := ppm.StripeForCode(code, 32<<20)
//	st.FillDataRandom(1, ppm.DataPositions(code))
//
//	dec := ppm.NewDecoder(code, ppm.WithThreads(4))
//	err = dec.Encode(st) // compute parity
//
//	sc, err := code.WorstCaseScenario(rng, 1) // 2 dead disks + 2 bad sectors
//	st.Erase(sc.Faulty)
//	err = dec.Decode(st, sc) // parallel recovery
//
// # Repeated decodes
//
// A Decoder is built for the rebuild-shaped workload, where thousands
// of stripes fail with the same pattern. Three layers make the repeated
// decode allocation-free: a plan cache on the Decoder (on by default,
// see WithPlanCache) that maps each distinct failure pattern to its
// built plan, so Decode runs at DecodeWithPlan speed from the second
// stripe on; pooled kernel scratch and executor session state, reused
// across decodes instead of reallocated; and a persistent worker pool
// shared by all executors, replacing per-decode goroutine spawning.
// A Decoder is safe for concurrent use by multiple goroutines on
// distinct stripes.
//
// # Error propagation
//
// Every decode entry point — Decode, DecodeWithPlan,
// BlockParallelDecode, and a RepairPlan's Execute and ExecuteRange,
// which run the plan's selection through Decode's executor — reports
// sub-decode failures as returned errors: a failing sub-decode is
// never silently dropped, and kernel-level shape violations are
// converted from panics into errors. A Scenario whose faulty list
// holds an index outside the stripe or a repeat is an error wherever
// it is passed in (Decodable reports false); unsorted lists are
// accepted. When several parallel sub-decodes fail in one call, the
// error of the lowest group index is returned, deterministically. An
// attached Stats counter is never credited for work a failed
// sub-decode did not complete.
//
// See examples/ for runnable programs, DESIGN.md for the architecture,
// and EXPERIMENTS.md for the paper-figure reproductions.
package ppm
