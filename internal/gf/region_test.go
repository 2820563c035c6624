package gf

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// regionWords reads a region as a slice of uint32 words for the field's
// word size, so scalar and region implementations can be compared.
func regionWords(f Field, region []byte) []uint32 {
	wb := f.WordBytes()
	out := make([]uint32, len(region)/wb)
	for i := range out {
		switch wb {
		case 1:
			out[i] = uint32(region[i])
		case 2:
			out[i] = uint32(binary.LittleEndian.Uint16(region[i*2:]))
		case 4:
			out[i] = binary.LittleEndian.Uint32(region[i*4:])
		}
	}
	return out
}

func randRegion(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestMultXORsMatchesScalar checks dst ^= a*src word-by-word against the
// scalar Mul, across sizes that exercise the unrolled loops and tails.
func TestMultXORsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tf := range testFields {
		tf := tf
		t.Run(tf.name, func(t *testing.T) {
			wb := tf.f.WordBytes()
			for _, words := range []int{1, 2, 3, 7, 8, 16, 63, 128, 1000} {
				n := words * wb
				for trial := 0; trial < 5; trial++ {
					a := rng.Uint32() & tf.mask
					src := randRegion(rng, n)
					dst := randRegion(rng, n)
					origDst := regionWords(tf.f, dst)
					srcWords := regionWords(tf.f, src)

					tf.f.MultXORs(dst, src, a)

					got := regionWords(tf.f, dst)
					for i := range got {
						want := origDst[i] ^ tf.f.Mul(a, srcWords[i])
						if got[i] != want {
							t.Fatalf("a=%#x words=%d word %d: got %#x want %#x",
								a, words, i, got[i], want)
						}
					}
				}
			}
		})
	}
}

// TestMulRegionMatchesScalar checks dst = a*src word-by-word.
func TestMulRegionMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tf := range testFields {
		tf := tf
		t.Run(tf.name, func(t *testing.T) {
			wb := tf.f.WordBytes()
			for _, words := range []int{1, 5, 64, 513} {
				n := words * wb
				a := rng.Uint32() & tf.mask
				src := randRegion(rng, n)
				dst := make([]byte, n)
				srcWords := regionWords(tf.f, src)

				tf.f.MulRegion(dst, src, a)

				got := regionWords(tf.f, dst)
				for i := range got {
					if want := tf.f.Mul(a, srcWords[i]); got[i] != want {
						t.Fatalf("a=%#x word %d: got %#x want %#x", a, i, got[i], want)
					}
				}
			}
		})
	}
}

func TestMultXORsSpecialConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tf := range testFields {
		tf := tf
		t.Run(tf.name, func(t *testing.T) {
			n := 64 * tf.f.WordBytes()
			src := randRegion(rng, n)
			dst := randRegion(rng, n)

			// a == 0 leaves dst untouched.
			before := append([]byte(nil), dst...)
			tf.f.MultXORs(dst, src, 0)
			if !bytes.Equal(dst, before) {
				t.Error("MultXORs with a=0 modified dst")
			}

			// a == 1 is plain XOR.
			tf.f.MultXORs(dst, src, 1)
			for i := range dst {
				if dst[i] != before[i]^src[i] {
					t.Fatalf("MultXORs a=1 byte %d: got %#x want %#x", i, dst[i], before[i]^src[i])
				}
			}

			// Applying the same MultXORs twice cancels (characteristic 2).
			tf.f.MultXORs(dst, src, 1)
			if !bytes.Equal(dst, before) {
				t.Error("double MultXORs did not cancel")
			}
		})
	}
}

// TestCoefficientOneXOR: the a == 1 path of MultXORs and the trivial
// Multiplier is a plain XOR at every word-multiple length 4..4100, and
// with dst == src it XORs a region with itself to zeros.
func TestCoefficientOneXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const max = 4100
	src, base := randRegion(rng, max), randRegion(rng, max)
	dst := make([]byte, max)
	for _, tf := range testFields {
		one := MultiplierFor(tf.f, 1)
		ops := []struct {
			name string
			xor  func(dst, src []byte)
		}{
			{"MultXORs", func(dst, src []byte) { tf.f.MultXORs(dst, src, 1) }},
			{"Multiplier", one.MultXOR},
		}
		wb := tf.f.WordBytes()
		for _, op := range ops {
			for n := 4; n <= max; n += wb {
				copy(dst, base[:n])
				op.xor(dst[:n], src[:n])
				for i := 0; i < n; i++ {
					if dst[i] != base[i]^src[i] {
						t.Fatalf("%s %s, %d bytes: byte %d is %#x, want %#x", tf.name, op.name, n, i, dst[i], base[i]^src[i])
					}
				}
			}
			n := max / wb * wb
			self := append([]byte(nil), src[:n]...)
			op.xor(self, self)
			if !bytes.Equal(self, make([]byte, n)) {
				t.Fatalf("%s %s: dst == src did not XOR to zeros", tf.name, op.name)
			}
		}
	}
}

func TestMulRegionSpecialConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, tf := range testFields {
		tf := tf
		t.Run(tf.name, func(t *testing.T) {
			n := 32 * tf.f.WordBytes()
			src := randRegion(rng, n)
			dst := randRegion(rng, n)

			tf.f.MulRegion(dst, src, 1)
			if !bytes.Equal(dst, src) {
				t.Error("MulRegion a=1 is not copy")
			}
			tf.f.MulRegion(dst, src, 0)
			if !bytes.Equal(dst, make([]byte, n)) {
				t.Error("MulRegion a=0 is not zero")
			}
		})
	}
}

// TestRegionLinearity: a*(x ^ y) == a*x ^ a*y at region level.
func TestRegionLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, tf := range testFields {
		tf := tf
		t.Run(tf.name, func(t *testing.T) {
			n := 48 * tf.f.WordBytes()
			a := rng.Uint32() & tf.mask
			x := randRegion(rng, n)
			y := randRegion(rng, n)

			xy := make([]byte, n)
			for i := range xy {
				xy[i] = x[i] ^ y[i]
			}
			left := make([]byte, n)
			tf.f.MultXORs(left, xy, a)

			right := make([]byte, n)
			tf.f.MultXORs(right, x, a)
			tf.f.MultXORs(right, y, a)

			if !bytes.Equal(left, right) {
				t.Errorf("region op not linear for a=%#x", a)
			}
		})
	}
}

func TestRegionLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched region lengths did not panic")
		}
	}()
	//ppm:allow(regionargs) deliberately mismatched lengths: this test asserts the panic
	GF8.MultXORs(make([]byte, 8), make([]byte, 9), 3)
}

func TestRegionWordAlignmentPanics(t *testing.T) {
	for _, tf := range []struct {
		name string
		f    Field
	}{{"GF16", GF16}, {"GF32", GF32}} {
		tf := tf
		t.Run(tf.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("unaligned region did not panic")
				}
			}()
			n := tf.f.WordBytes()*4 + 1
			tf.f.MultXORs(make([]byte, n), make([]byte, n), 3)
		})
	}
}

func TestEmptyRegionsAreNoOps(t *testing.T) {
	for _, tf := range testFields {
		tf.f.MultXORs(nil, nil, 7)
		tf.f.MulRegion(nil, nil, 7)
	}
}
