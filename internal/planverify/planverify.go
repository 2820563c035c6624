// Package planverify is the symbolic plan verifier: an abstract
// interpreter that walks every kind of compiled artifact the repository
// ships — xorplan straight-line XOR programs, kernel row-block
// lowerings, core decode plans, repair plans and delta-update columns —
// and proves each one algebraically equal to its source coefficient
// matrix. No sampling: where the differential fuzzers compare outputs on
// random inputs, this package tracks every buffer and arena slot as a
// symbolic GF coefficient vector over the program's inputs and demands
// exact equality with the matrix row (or, for recovery plans,
// membership of the recovery residual in the parity-check row space —
// the statement "this expression recovers that sector on every
// codeword").
//
// The symbolic pass is complemented by structural passes over the same
// walk, because an optimiser bug can corrupt a program in ways the
// algebra alone reports poorly (Uezato, arXiv:2108.02692 — scheduling
// and CSE passes are exactly where XOR compilers break):
//
//   - liveness: no read of an unwritten (or recycled-and-stale) arena
//     slot, and no dead stores — every materialised temp is consumed;
//   - alias safety: derivative outputs copy only from rows already
//     written, never from their own destination;
//   - bounds: every slot, input, row and tile reference stays inside
//     the arenas the executor will index;
//   - stats accounting: the program's XOR metric and every plan's
//     mult_XORs cost recompute exactly from the ops it contains, so
//     Stats.MultXORs accounting can never drift from the code a plan
//     actually runs.
//
// Which verifier checks what:
//
//   - VerifyProgram: an xorplan program against its matrix (symbolic,
//     liveness, alias, bounds, stats, tile geometry);
//   - VerifyBlocks: a compiled matrix's row blocks against its matrix;
//   - VerifyDecodePlan and VerifyRepairPlan: one stage walk over a
//     core.Plan — a repair plan's Selection is one — that proves each
//     stage's compiled lowering (VerifyBlocks, plus VerifyProgram when
//     an XOR program is attached) and each recovery expression's
//     row-space membership, and bars parallel groups from reading each
//     other's outputs. A folded plan's H_rest syndrome rows run as
//     symbolic accumulators through the groups that add to them. VerifyDecodePlan then requires every faulty
//     sector recovered and Costs.Chosen exact; VerifyRepairPlan requires
//     every wanted sector recovered, ReadCols exactly the survivors the
//     stages read, and the Cost counters exact;
//   - VerifyUpdater: every delta-update column keeps the stripe a
//     codeword.
//
// Verification runs in three places, never on a production path: the
// ppmverify CLI sweeping the standard code zoo (make verify-plans),
// direct Verify* calls in the xorplan, repair and core test suites and
// the fuzzers, and a mutation harness that measures the verifier's own
// detection power against single-op program corruptions. A proof costs
// far more than the plan build it would guard, so nothing verifies a
// plan as it is built.
package planverify

import "fmt"

// A Finding is one verification failure, pinpointed to the op that
// breaks the proof. The zero OpIndex ambiguity is avoided by using -1
// for findings that are not op-specific.
type Finding struct {
	// Object names the artifact kind: "xorplan-program", "row-blocks",
	// "decode-plan", "repair-plan" or "updater".
	Object string `json:"object"`
	// Detail identifies the instance (code, scenario, backend) when the
	// finding comes from a sweep; empty for direct Verify* calls.
	Detail string `json:"detail,omitempty"`
	// Pass names the check that failed: "symbolic", "liveness", "alias",
	// "bounds", "structure" or "stats".
	Pass string `json:"pass"`
	// OpIndex pinpoints the offending op inside the artifact (the
	// instruction/output/step index the Message describes), -1 when the
	// finding is not op-specific.
	OpIndex int `json:"op_index"`
	// Message states what failed.
	Message string `json:"message"`
}

func (f Finding) String() string {
	where := ""
	if f.Detail != "" {
		where = f.Detail + ": "
	}
	if f.OpIndex >= 0 {
		return fmt.Sprintf("%s%s: %s: op %d: %s", where, f.Object, f.Pass, f.OpIndex, f.Message)
	}
	return fmt.Sprintf("%s%s: %s: %s", where, f.Object, f.Pass, f.Message)
}

// stamp labels findings with the sweep instance that produced them.
func stamp(fs []Finding, detail string) []Finding {
	for i := range fs {
		fs[i].Detail = detail
	}
	return fs
}
