// Package repair is the statsaccount fixture for the repair planner:
// plan execution delegates accounting to the compiled kernel product,
// but any step that reaches the gf region primitives directly — a
// minimized-row substitution or a delta parity patch — owes the same
// Stats.MultXORs tick the kernels would make.
package repair

import "gf"

// Stats mirrors the kernel's operation counter shape.
type Stats struct{ n int64 }

// AddMultXORs records n operations.
func (s *Stats) AddMultXORs(n int64) { s.n += n }

// deltaPatch folds one parity coefficient into the delta and ticks in
// the same body: clean.
func deltaPatch(f gf.Field, parity, delta []byte, c uint32, stats *Stats) {
	f.MultXORs(parity, delta, c)
	stats.AddMultXORs(1)
}

// substituteRow folds survivor contributions and never ticks: flagged.
func substituteRow(f gf.Field, out []byte, in [][]byte, coeffs []uint32) {
	for i := range in {
		f.MultXORs(out, in[i], coeffs[i]) // want "substituteRow performs region operations .MultXORs. without ticking Stats.MultXORs"
	}
}

// applyStep delegates accounting to the compiled product it stands in
// for, and says so.
//
//ppm:counted accounted-by-kernel: CompiledProductRange ticks the step NNZ internally
func applyStep(f gf.Field, out []byte, in [][]byte, coeffs []uint32) {
	for i := range in {
		f.MultXORs(out, in[i], coeffs[i])
	}
}

// planOnly scores candidate rows without touching a region: out of
// scope.
func planOnly(stats *Stats) {
	stats.AddMultXORs(0)
}
