package gf

// Affine lowering of constant multiplication.
//
// Multiplication by a fixed constant a is GF(2)-linear on the w-bit
// word: every output bit is an XOR of input bits. Splitting the w×w
// bit matrix into 8×8 byte blocks A_ij (output byte i from input byte
// j) turns one region multiply into a handful of byte-wise affine
// transforms — exactly the operation the GF2P8AFFINEQB instruction
// evaluates 64 bytes at a time. The builders here encode those blocks
// in the instruction's matrix format; block_amd64.s consumes them.
// The encoding is portable Go so every platform can build and test it;
// only the consumption is amd64-specific.
//
// GF2P8AFFINEQB matrix format: the 64-bit operand holds 8 row bytes,
// byte 7-t describing output bit t; bit s of that row selects input
// bit s. (Verified against scalar Mul by TestAffineBlocksMatchScalar
// and the differential fuzz target.)

// AffineKernels reports whether the GF2P8AFFINEQB region kernels are
// active: the CPU and OS support them and PPM_NO_GFNI is unset.
func AffineKernels() bool { return useAffine }

// SetAffineKernels enables or disables the affine region kernels and
// returns the previous setting. Enabling is ignored on hardware
// without GFNI/AVX-512 support; the intended uses are benchmarking the
// portable kernels on capable hardware and restoring the detected
// default afterwards:
//
//	defer gf.SetAffineKernels(gf.SetAffineKernels(false))
//
// The switch is not synchronized — do not call it concurrently with
// region operations.
func SetAffineKernels(on bool) (prev bool) {
	prev = useAffine
	useAffine = on && affineSupported
	return prev
}

// mulColumns returns the products a·x^b for b in [0, w): column b of
// the multiplication-by-a bit matrix.
func mulColumns(f Field, a uint32) []uint64 {
	w := f.W()
	cols := make([]uint64, w)
	for b := 0; b < w; b++ {
		cols[b] = uint64(f.Mul(a, uint32(1)<<uint(b)))
	}
	return cols
}

// affineBlock encodes byte block (i, j) of the bit matrix whose
// columns are cols: output bit t of byte i depends on input bit s of
// byte j iff bit 8i+t of cols[8j+s] is set.
func affineBlock(cols []uint64, i, j int) uint64 {
	var q uint64
	for t := 0; t < 8; t++ {
		var row uint64
		for s := 0; s < 8; s++ {
			if cols[8*j+s]>>(uint(8*i+t))&1 != 0 {
				row |= 1 << uint(s)
			}
		}
		q |= row << uint(8*(7-t))
	}
	return q
}

// affineMat8 encodes GF(2^8) multiplication by a as a single affine
// matrix: one GF2P8AFFINEQB covers the whole byte stream.
func affineMat8(f Field, a uint32) uint64 {
	return affineBlock(mulColumns(f, a), 0, 0)
}

// affineMats16 encodes GF(2^16) multiplication by a for the planar
// kernel in block_amd64.s: the kernel splits each 64-byte vector into
// a low-byte plane (first 32 bytes) and a high-byte plane, so
// mats[0] pairs the in-place blocks [A00 ×4 | A11 ×4] and mats[1] the
// cross blocks [A01 ×4 | A10 ×4] applied to the plane-swapped vector.
func affineMats16(f Field, a uint32) *[2][8]uint64 {
	cols := mulColumns(f, a)
	var m [2][8]uint64
	a00 := affineBlock(cols, 0, 0)
	a01 := affineBlock(cols, 0, 1)
	a10 := affineBlock(cols, 1, 0)
	a11 := affineBlock(cols, 1, 1)
	for k := 0; k < 4; k++ {
		m[0][k] = a00
		m[0][4+k] = a11
		m[1][k] = a01
		m[1][4+k] = a10
	}
	return &m
}

// affineMats32 encodes GF(2^32) multiplication by a for the planar
// kernel: plane i (a 16-byte lane holding byte i of 16 words) sits in
// matrix qwords 2i and 2i+1, and rotation r of the planes pairs plane
// i with input byte (i+r)&3, so mats[r] holds A_{i,(i+r)&3} there.
func affineMats32(f Field, a uint32) *[4][8]uint64 {
	cols := mulColumns(f, a)
	var m [4][8]uint64
	for r := 0; r < 4; r++ {
		for i := 0; i < 4; i++ {
			blk := affineBlock(cols, i, (i+r)&3)
			m[r][2*i] = blk
			m[r][2*i+1] = blk
		}
	}
	return &m
}
