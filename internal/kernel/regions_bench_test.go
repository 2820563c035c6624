package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"ppm/internal/gf"
)

// BenchmarkKernelRegions is the headline before/after pair for the
// fused+tiled kernel, the series `make bench-kernel` records in
// BENCH_kernel.json. Both arms apply the same representative decode
// matrix (4 outputs from 12 survivors — an SD/RS-shaped recovery) to
// the same regions:
//
//   - ref_*: the pre-PR sweep — one whole-region scalar table pass per
//     nonzero coefficient, destination loaded and stored once per term,
//     with the affine kernels forced off (the seed had none).
//   - tiled_*: the compiled path — fused affine row kernels over 32 KiB
//     tiles, with the >= 1 MiB regions additionally fanned across the
//     worker pool, exactly as production decodes run it.
//
// MB/s counts bytes actually touched (12 sources + 4 destinations per
// pass), identically in both arms, so the ratio is the real speedup.
func BenchmarkKernelRegions(b *testing.B) {
	rng := rand.New(rand.NewSource(420))
	for _, f := range []gf.Field{gf.GF8, gf.GF16, gf.GF32} {
		for _, sz := range []struct {
			name  string
			bytes int
		}{
			{"4KiB", 4 << 10},
			{"128KiB", 128 << 10},
			{"8MiB", 8 << 20},
		} {
			m := randMatrix(rng, f, 4, 12)
			in := randRegions(rng, 12, sz.bytes)
			out := AllocRegions(4, sz.bytes)
			cm := Compile(f, m)
			total := int64(16 * sz.bytes)
			b.Run(fmt.Sprintf("ref_gf%d_%s", f.W(), sz.name), func(b *testing.B) {
				defer gf.SetAffineKernels(gf.SetAffineKernels(false))
				b.SetBytes(total)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					refApply(f, m, in, out)
				}
			})
			b.Run(fmt.Sprintf("tiled_gf%d_%s", f.W(), sz.name), func(b *testing.B) {
				b.SetBytes(total)
				for i := 0; i < b.N; i++ {
					cm.Apply(in, out, nil)
				}
			})
		}
	}
}

// BenchmarkKernelXorplan is the no-GFNI before/after pair for the
// XOR-program backend, recorded as the xorplan_pairs series of
// BENCH_kernel.json. Both arms run with the affine kernels forced off
// — the hardware class the backend exists for — over the same
// SD/RS-shaped decode matrix and regions:
//
//   - portable_*: the compiled tiled path on the scalar table row
//     kernels, today's best no-GFNI path.
//   - xorplan_*: the same matrix compiled with the XOR program
//     attached — polynomial-ring lowering, CSE/Prim scheduling, fused
//     AVX2/AVX-512 XOR execution.
func BenchmarkKernelXorplan(b *testing.B) {
	rng := rand.New(rand.NewSource(422))
	defer gf.SetAffineKernels(gf.SetAffineKernels(false))
	for _, f := range []gf.Field{gf.GF8, gf.GF16, gf.GF32} {
		for _, sz := range []struct {
			name  string
			bytes int
		}{
			{"4KiB", 4 << 10},
			{"128KiB", 128 << 10},
			{"8MiB", 8 << 20},
		} {
			m := randMatrix(rng, f, 4, 12)
			in := randRegions(rng, 12, sz.bytes)
			out := AllocRegions(4, sz.bytes)
			cmOff, cmOn := compilePair(f, m)
			if cmOn.XORProgram() == nil {
				b.Fatal("forced compile carries no program")
			}
			total := int64(16 * sz.bytes)
			b.Run(fmt.Sprintf("portable_gf%d_%s", f.W(), sz.name), func(b *testing.B) {
				b.SetBytes(total)
				for i := 0; i < b.N; i++ {
					cmOff.Apply(in, out, nil)
				}
			})
			b.Run(fmt.Sprintf("xorplan_gf%d_%s", f.W(), sz.name), func(b *testing.B) {
				b.SetBytes(total)
				for i := 0; i < b.N; i++ {
					cmOn.Apply(in, out, nil)
				}
			})
		}
	}
}

// BenchmarkKernelProductChain isolates what tile-chaining buys the
// Normal sequence: the two-pass form materialises the full-size
// intermediate S*BS, the chained form streams it through tile-sized
// scratch that never leaves cache.
func BenchmarkKernelProductChain(b *testing.B) {
	rng := rand.New(rand.NewSource(421))
	f := gf.GF16
	const size = 1 << 20
	finv := randInvertible(rng, f, 4)
	s := randMatrix(rng, f, 4, 12)
	in := randRegions(rng, 12, size)
	out := AllocRegions(4, size)
	cFinv, cS := Compile(f, finv), Compile(f, s)
	total := int64(16 * size)
	b.Run("two-pass_full-intermediate", func(b *testing.B) {
		scratch := AllocRegions(4, size)
		b.SetBytes(total)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cS.applySpan(in, scratch, 0, size, true)
			cFinv.applySpan(scratch, out, 0, size, true)
		}
	})
	b.Run("tile-chained", func(b *testing.B) {
		b.SetBytes(total)
		for i := 0; i < b.N; i++ {
			CompiledProduct(cFinv, cS, nil, in, out, nil, Normal, nil)
		}
	})
}
