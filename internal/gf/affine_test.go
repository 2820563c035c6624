package gf

import (
	"math/rand"
	"testing"
)

// forBothKernelPaths runs fn once with the affine kernels active (when
// the host supports them) and once forced onto the portable table
// kernels, so every differential test pins both implementations.
func forBothKernelPaths(t *testing.T, fn func(t *testing.T)) {
	t.Run("affine", func(t *testing.T) {
		if !AffineKernels() {
			t.Skip("affine kernels unavailable on this host")
		}
		fn(t)
	})
	t.Run("tables", func(t *testing.T) {
		defer SetAffineKernels(SetAffineKernels(false))
		fn(t)
	})
}

// TestAffineBlocksMatchScalar validates the matrix encoding itself, on
// every platform: evaluating the encoded 8×8 blocks in scalar Go must
// reproduce Field.Mul for all three fields.
func TestAffineBlocksMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(408))
	for _, f := range []Field{GF8, GF16, GF32} {
		wb := f.WordBytes()
		mask := uint32(f.Order() - 1)
		for trial := 0; trial < 25; trial++ {
			a := rng.Uint32() & mask
			if a <= 1 {
				a = 2
			}
			cols := mulColumns(f, a)
			for wt := 0; wt < 20; wt++ {
				w := rng.Uint32() & mask
				want := f.Mul(a, w)
				var got uint32
				for i := 0; i < wb; i++ {
					var ob byte
					for j := 0; j < wb; j++ {
						ob ^= affineByte(affineBlock(cols, i, j), byte(w>>uint(8*j)))
					}
					got |= uint32(ob) << uint(8*i)
				}
				if got != want {
					t.Fatalf("GF%d: affine blocks give %#x * %#x = %#x, want %#x",
						f.W(), a, w, got, want)
				}
			}
		}
	}
}

// TestMultiplierMatchesScalar: the bound multiplier's region op equals
// the word-at-a-time scalar product on both kernel paths, across
// lengths straddling the 64-byte vector width and its scalar tails.
func TestMultiplierMatchesScalar(t *testing.T) {
	forBothKernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(409))
		for _, f := range []Field{GF8, GF16, GF32} {
			wb := f.WordBytes()
			mask := uint32(f.Order() - 1)
			sizes := []int{wb, 56, 64, 64 + wb, 120, 128, 192 + wb, 1024 + 8 + wb}
			for _, size := range sizes {
				size -= size % wb
				a := rng.Uint32() & mask
				if a <= 1 {
					a = 3
				}
				src := make([]byte, size)
				rng.Read(src)
				dst := make([]byte, size)
				rng.Read(dst)
				want := append([]byte(nil), dst...)

				MultiplierFor(f, a).MultXOR(dst, src)
				for i := 0; i+wb <= len(want); i += wb {
					w := readWord(src[i:], wb)
					putWord(want[i:], wb, readWord(want[i:], wb)^f.Mul(a, w))
				}
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("GF%d a=%#x size=%d: byte %d = %#x want %#x",
							f.W(), a, size, i, dst[i], want[i])
					}
				}
			}
		}
	})
}
