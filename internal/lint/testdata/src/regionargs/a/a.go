// Package a is the regionargs fixture: provable aliasing, length and
// word-size violations at gf region-operation call sites.
package a

import "gf"

var f16 = gf.New16()

func aliasing(buf, other []byte, f gf.Field) {
	f.MultXORs(buf, buf, 3)                                    // want "dst and src alias"
	f.MulRegion(buf, buf, 3)                                   // want "dst and src alias"
	f.MultXORs(buf[0:64], buf[32:96], 3)                       // want "dst and src may alias"
	f.MultXORs(buf[0:64], buf[64:128], 3)                      // disjoint constant ranges: clean
	f.MultXORs(buf, other, 3)                                  // distinct identifiers: clean
	f.MultXORsMulti(buf, [][]byte{other, buf}, []uint32{1, 2}) // want "dst and src alias"
}

func lengths(buf, other []byte, f gf.Field) {
	f.MultXORs(buf[0:64], other[0:32], 3)  // want "dst length 64 != src length 32"
	f.MultXORs(buf[0:64], other[32:96], 3) // equal constant lengths: clean
}

func wordSize(buf, other []byte) {
	f16.MultXORs(buf[0:7], other[8:15], 3)   // want "length 7 is not a multiple" "length 7 is not a multiple"
	f16.MultXORs(buf[0:8], other[8:16], 3)   // multiple of 2: clean
	f16.MultXORs(make([]byte, 10), other, 3) // multiple of 2: clean
	f16.MultXORs(make([]byte, 9), other, 3)  // want "length 9 is not a multiple"
}

func throughInterface(buf, other []byte, f gf.Field) {
	// Word size is unknowable through the interface: never flagged.
	f.MultXORs(buf[0:7], other[0:7], 3)
}

// blocks exercises the row-block op: output and source lists must be
// distinct, and chaining one stage's outputs into the next is clean.
func blocks(b *gf.RowBlock, mid, outs, views [][]byte) {
	b.Apply(mid, views, true) // clean
	b.Apply(outs, mid, true)  // chained stage reads the intermediate: clean
	b.Apply(mid, mid, true)   // want "output and source region lists alias"
}

// multipliers exercises the single-constant op: dst and src are one
// region each.
func multipliers(m gf.Multiplier, buf, other []byte) {
	m.MultXOR(buf, other)             // clean
	m.MultXOR(buf, buf)               // want "dst and src alias"
	m.MultXOR(buf[0:64], other[0:32]) // want "dst length 64 != src length 32"
	m.MultXOR(buf[0:64], buf[64:128]) // disjoint constant ranges: clean
}
