// Package a is the statsaccount fixture: functions that reach the gf
// region primitives must account mult_XORs or declare who does.
package a

import "gf"

// Stats mirrors the kernel's operation counter shape.
type Stats struct{ n int64 }

// AddMultXORs records n operations.
func (s *Stats) AddMultXORs(n int64) { s.n += n }

// accounted ticks the counter in the same body: clean.
func accounted(f gf.Field, dst, src []byte, stats *Stats) {
	f.MultXORs(dst, src, 3)
	stats.AddMultXORs(1)
}

// unaccounted performs a region op and never ticks: flagged.
func unaccounted(f gf.Field, dst, src []byte) {
	f.MultXORs(dst, src, 3) // want "unaccounted performs region operations .MultXORs. without ticking Stats.MultXORs"
}

// counted delegates accounting to its caller, and says so.
//
//ppm:counted accounted-by-caller: the driver adds the full row NNZ once
func counted(f gf.Field, dst []byte, srcs [][]byte, consts []uint32) {
	f.MultXORsMulti(dst, srcs, consts)
}

// noOps never touches a region primitive: out of scope.
func noOps(stats *Stats) {
	stats.AddMultXORs(0)
}

// blockDriver applies row blocks and never ticks: flagged.
func blockDriver(blocks []*gf.RowBlock, out, in [][]byte) {
	for _, b := range blocks {
		b.Apply(out, in, false) // want "blockDriver performs region operations .Apply. without ticking Stats.MultXORs"
	}
}

// blockTile is the tiled inner driver; its caller accounts.
//
//ppm:counted accounted-by-caller: Apply adds the matrix NNZ once
func blockTile(blocks []*gf.RowBlock, out, in [][]byte) {
	for _, b := range blocks {
		b.Apply(out, in, true)
	}
}
