package kernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// refApply is the seed's term-at-a-time sweep — one whole-region
// MultXOR per nonzero coefficient — kept as the differential reference
// for the tiled/fused drivers.
func refApply(f gf.Field, m *matrix.Matrix, in, out [][]byte) {
	for i := 0; i < m.Rows(); i++ {
		for j, a := range m.Row(i) {
			if a == 0 {
				continue
			}
			gf.MultiplierFor(f, a).MultXOR(out[i], in[j])
		}
	}
}

func TestSetTileSizeClamps(t *testing.T) {
	defer setTileSize(0)
	setTileSize(1)
	if got := tileSize(); got != minTileBytes {
		t.Fatalf("tileSize after setTileSize(1) = %d, want %d", got, minTileBytes)
	}
	setTileSize(1000)
	if got := tileSize(); got != 1000+(8-1000%8)%8 && got%8 != 0 {
		t.Fatalf("tileSize after setTileSize(1000) = %d, want multiple of 8 >= 1000", got)
	}
	setTileSize(0)
	if got := tileSize(); got != defaultTileBytes {
		t.Fatalf("tileSize after setTileSize(0) = %d, want default %d", got, defaultTileBytes)
	}
}

func TestTileSpansCoverRange(t *testing.T) {
	for _, tc := range []struct{ size, parts, tile int }{
		{0, 4, 512}, {511, 4, 512}, {512, 4, 512}, {1024, 4, 512},
		{4096, 4, 512}, {4100, 4, 512}, {1 << 20, 8, 32 << 10},
		{(1 << 20) + 8, 3, 32 << 10}, {5000, 100, 512},
	} {
		spans := tileSpans(tc.size, tc.parts, tc.tile)
		if spans == nil {
			// One span suffices; the serial caller covers [0, size).
			continue
		}
		if len(spans) > tc.parts {
			t.Fatalf("size=%d parts=%d tile=%d: %d spans", tc.size, tc.parts, tc.tile, len(spans))
		}
		prev := 0
		for i, sp := range spans {
			if sp[0] != prev || sp[1] <= sp[0] {
				t.Fatalf("size=%d: span %d = %v, prev end %d", tc.size, i, sp, prev)
			}
			if i < len(spans)-1 && (sp[1]-sp[0])%tc.tile != 0 {
				t.Fatalf("size=%d: interior span %d = %v not whole tiles", tc.size, i, sp)
			}
			prev = sp[1]
		}
		if prev != tc.size {
			t.Fatalf("size=%d: spans end at %d", tc.size, prev)
		}
	}
}

func TestChunkRangesAligned(t *testing.T) {
	defer setTileSize(0)
	setTileSize(512)
	// Large enough for tile alignment: interior boundaries on tile edges.
	ranges := ChunkRangesAligned(8192, 4, 2)
	if len(ranges) < 2 {
		t.Fatalf("got %d ranges", len(ranges))
	}
	prev := 0
	for i, r := range ranges {
		if r[0] != prev {
			t.Fatalf("range %d starts at %d, want %d", i, r[0], prev)
		}
		if i < len(ranges)-1 && r[1]%512 != 0 {
			t.Fatalf("interior boundary %d not tile-aligned", r[1])
		}
		prev = r[1]
	}
	if prev != 8192 {
		t.Fatalf("ranges end at %d", prev)
	}
	// Too small for tile alignment: degrades to word-aligned ChunkRanges.
	small := ChunkRangesAligned(100, 4, 4)
	want := ChunkRanges(100, 4, 4)
	if fmt.Sprint(small) != fmt.Sprint(want) {
		t.Fatalf("small range %v, want %v", small, want)
	}
}

// TestTiledApplyMatchesReference: with the tile shrunk to the minimum,
// region sizes straddling tile boundaries (±1 word) run through many
// tiles and must equal the term-at-a-time reference exactly — for the
// matrix path, the compiled path, and a range-split compiled product.
func TestTiledApplyMatchesReference(t *testing.T) {
	defer setTileSize(0)
	setTileSize(minTileBytes)
	tile := tileSize()
	rng := rand.New(rand.NewSource(404))
	for _, f := range []gf.Field{gf.GF8, gf.GF16, gf.GF32} {
		wb := f.WordBytes()
		sizes := []int{wb, tile - wb, tile, tile + wb, 3*tile - wb, 3*tile + wb}
		for _, size := range sizes {
			m := randMatrix(rng, f, 4, 7)
			m.Set(0, 3, 0)
			m.Set(2, 2, 1)
			in := randRegions(rng, 7, size)

			want := AllocRegions(4, size)
			refApply(f, m, in, want)

			got := AllocRegions(4, size)
			var stats Stats
			Apply(f, m, in, got, &stats)
			for i := range want {
				if !bytes.Equal(want[i], got[i]) {
					t.Fatalf("GF%d size=%d: Apply row %d differs", f.W(), size, i)
				}
			}
			if stats.MultXORs() != int64(m.NNZ()) {
				t.Fatalf("GF%d size=%d: Apply counted %d ops, want %d", f.W(), size, stats.MultXORs(), m.NNZ())
			}

			cm := Compile(f, m)
			cgot := AllocRegions(4, size)
			cm.Apply(in, cgot, nil)
			for i := range want {
				if !bytes.Equal(want[i], cgot[i]) {
					t.Fatalf("GF%d size=%d: compiled Apply row %d differs", f.W(), size, i)
				}
			}

			// Range-split product over uneven word-aligned cuts.
			rgot := AllocRegions(4, size)
			cuts := ChunkRanges(size, 3, wb)
			for _, ch := range cuts {
				CompiledProductRange(nil, nil, cm, in, rgot, nil, MatrixFirst, ch[0], ch[1], nil)
			}
			for i := range want {
				if !bytes.Equal(want[i], rgot[i]) {
					t.Fatalf("GF%d size=%d: CompiledProductRange row %d differs", f.W(), size, i)
				}
			}
		}
	}
}

// TestTiledApplyPortableKernels: the tiled/fused drivers must stay
// correct with the affine kernels disabled — the path non-GFNI hosts
// take. (On such hosts this duplicates TestTiledApplyMatchesReference;
// on GFNI hosts it is the only coverage of the table kernels under the
// tiled drivers.)
func TestTiledApplyPortableKernels(t *testing.T) {
	defer gf.SetAffineKernels(gf.SetAffineKernels(false))
	defer setTileSize(0)
	setTileSize(minTileBytes)
	tile := tileSize()
	rng := rand.New(rand.NewSource(412))
	for _, f := range []gf.Field{gf.GF8, gf.GF16, gf.GF32} {
		wb := f.WordBytes()
		for _, size := range []int{tile - wb, 2*tile + wb} {
			m := randMatrix(rng, f, 3, 6)
			in := randRegions(rng, 6, size)
			want := AllocRegions(3, size)
			refApply(f, m, in, want)
			got := AllocRegions(3, size)
			Compile(f, m).Apply(in, got, nil)
			for i := range want {
				if !bytes.Equal(want[i], got[i]) {
					t.Fatalf("GF%d size=%d: portable-kernel apply row %d differs", f.W(), size, i)
				}
			}
		}
	}
}

// TestTiledProductMatchesReference: the tile-chained Normal sequence
// (matrix and compiled forms, pooled and caller scratch, range-split
// form) equals the two-pass reference.
func TestTiledProductMatchesReference(t *testing.T) {
	defer setTileSize(0)
	setTileSize(minTileBytes)
	tile := tileSize()
	rng := rand.New(rand.NewSource(405))
	f := gf.GF16
	finv := randInvertible(rng, f, 3)
	s := randMatrix(rng, f, 3, 6)
	for _, size := range []int{2, tile - 2, tile + 2, 2*tile + 10} {
		in := randRegions(rng, 6, size)

		// Reference: full-size intermediate, term-at-a-time passes.
		mid := AllocRegions(3, size)
		refApply(f, s, in, mid)
		want := AllocRegions(3, size)
		refApply(f, finv, mid, want)

		check := func(label string, got [][]byte) {
			t.Helper()
			for i := range want {
				if !bytes.Equal(want[i], got[i]) {
					t.Fatalf("size=%d %s: row %d differs", size, label, i)
				}
			}
		}

		out := AllocRegions(3, size)
		Product(f, finv, s, in, out, nil, Normal, nil)
		check("Product pooled scratch", out)

		out2 := AllocRegions(3, size)
		Product(f, finv, s, in, out2, AllocRegions(3, size), Normal, nil)
		check("Product caller scratch", out2)

		cFinv, cS := Compile(f, finv), Compile(f, s)
		out3 := AllocRegions(3, size)
		CompiledProduct(cFinv, cS, nil, in, out3, nil, Normal, nil)
		check("CompiledProduct", out3)

		out4 := AllocRegions(3, size)
		for _, ch := range ChunkRanges(size, 3, 2) {
			CompiledProductRange(cFinv, cS, nil, in, out4, nil, Normal, ch[0], ch[1], nil)
		}
		check("CompiledProductRange", out4)

		cG := Compile(f, finv.Mul(s))
		out5 := AllocRegions(3, size)
		for _, ch := range ChunkRanges(size, 2, 2) {
			CompiledProductRange(nil, nil, cG, in, out5, nil, MatrixFirst, ch[0], ch[1], nil)
		}
		check("CompiledProductRange matrix-first", out5)
	}
}

// TestCompiledApplyParallelPath: a region at/above fanoutMinBytes()
// takes the worker fan-out arm and must still match the serial
// reference bit for bit with the full operation count. Run under -race
// this also proves the fan-out is data-race-free.
func TestCompiledApplyParallelPath(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-MiB regions")
	}
	rng := rand.New(rand.NewSource(406))
	f := gf.GF16
	size := fanoutMinBytes() + 2*tileSize() + 2 // sub-tile, sub-word-8 tail
	m := randMatrix(rng, f, 3, 5)
	in := randRegions(rng, 5, size)

	want := AllocRegions(3, size)
	refApply(f, m, in, want)

	cm := Compile(f, m)
	got := AllocRegions(3, size)
	var stats Stats
	cm.Apply(in, got, &stats)
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("parallel apply row %d differs", i)
		}
	}
	if stats.MultXORs() != int64(m.NNZ()) {
		t.Fatalf("parallel apply counted %d ops, want %d", stats.MultXORs(), m.NNZ())
	}

	// The Normal product takes the same fan-out arm.
	finv := randInvertible(rng, f, 3)
	mid := AllocRegions(3, size)
	refApply(f, m, in, mid)
	pwant := AllocRegions(3, size)
	refApply(f, finv, mid, pwant)
	pgot := AllocRegions(3, size)
	CompiledProduct(Compile(f, finv), cm, nil, in, pgot, nil, Normal, nil)
	for i := range pwant {
		if !bytes.Equal(pwant[i], pgot[i]) {
			t.Fatalf("parallel product row %d differs", i)
		}
	}
}

// TestCompiledApplyAllocationFree: the serial tiled path — the one
// repeated decodes sit on — must not allocate per call once compiled:
// view headers and Normal-sequence scratch all come from pools.
func TestCompiledApplyAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool deliberately drops items; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(407))
	f := gf.GF16
	size := 256 << 10 // large enough to tile, below the parallel cutoff
	m := randMatrix(rng, f, 4, 12)
	in := randRegions(rng, 12, size)
	out := AllocRegions(4, size)
	cm := Compile(f, m)
	var stats Stats

	if avg := testing.AllocsPerRun(10, func() {
		cm.Apply(in, out, &stats)
	}); avg != 0 {
		t.Fatalf("compiled Apply allocates %.1f/op on the serial path", avg)
	}

	finv := randInvertible(rng, f, 4)
	cFinv := Compile(f, finv)
	if avg := testing.AllocsPerRun(10, func() {
		CompiledProduct(cFinv, cm, nil, in, out, nil, Normal, &stats)
	}); avg != 0 {
		t.Fatalf("compiled Normal product allocates %.1f/op on the serial path", avg)
	}

	// The row-block path in overwrite mode, at every width, over a
	// matrix that splits into several blocks (with a region tail the
	// table path finishes).
	for _, bf := range []gf.Field{gf.GF8, gf.GF16, gf.GF32} {
		bm := blockTestMatrix(rng, bf)
		bin := randRegions(rng, bm.Cols(), size+bf.WordBytes())
		bout := AllocRegions(bm.Rows(), size+bf.WordBytes())
		bcm := Compile(bf, bm)
		if avg := testing.AllocsPerRun(10, func() {
			bcm.ApplyOverwrite(bin, bout, &stats)
			CompiledProductRange(nil, nil, bcm, bin, bout, nil, MatrixFirst, 64, size, &stats)
		}); avg != 0 {
			t.Fatalf("GF%d: row-block overwrite paths allocate %.1f/op on the serial path", bf.W(), avg)
		}
	}

	// The uncompiled sweep must also be allocation-free once the
	// field's multiplier memo is warm (it is, after the calls above).
	if avg := testing.AllocsPerRun(10, func() {
		Apply(f, m, in, out, &stats)
	}); avg != 0 {
		t.Fatalf("plain Apply allocates %.1f/op with warm multiplier memo", avg)
	}
}
