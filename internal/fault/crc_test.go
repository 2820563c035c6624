package fault

import (
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"testing"

	"ppm/internal/gf"
)

// crcPath is one of ChecksumSector's dispatch paths.
type crcPath struct {
	name  string
	clmul bool
}

// crcPaths are the dispatch paths this host can run: the hash/crc32
// path always, the folding kernel where gf.VectorCLMUL says the CPU has
// it.
func crcPaths() []crcPath {
	paths := []crcPath{{"crc32", false}}
	if gf.VectorCLMUL() {
		paths = append(paths, crcPath{"clmul", true})
	}
	return paths
}

// withCLMUL runs fn with the kernel switch set to on.
func withCLMUL(on bool, fn func()) {
	old := useCLMUL
	useCLMUL = on
	defer func() { useCLMUL = old }()
	fn()
}

// xPowMod returns x^d mod p over GF(2), p of degree 32.
func xPowMod(d int, p uint64) uint64 {
	r := uint64(1)
	for i := 0; i < d; i++ {
		r <<= 1
		if r&(1<<32) != 0 {
			r ^= p
		}
	}
	return r
}

// foldConst is the kernel's fold constant rule: k(d) =
// reflect32(x^d mod p) << 1.
func foldConst(d int, p uint64) uint64 {
	return uint64(bits.Reverse32(uint32(xPowMod(d, p)))) << 1
}

// reflect33 reverses the low 33 bits of v.
func reflect33(v uint64) uint64 { return bits.Reverse64(v) >> 31 }

// barrettMu returns x^64 div p, bit-reflected over 33 bits.
func barrettMu(p uint64) uint64 {
	// Long division of x^64 by p: the remainder, shifted so that bit 32
	// is the current x^(32+i) term, meets one quotient bit per step.
	var q uint64
	r := uint64(1) << 32 // x^64 reduced 32 places: the running x^(i+32) term
	for i := 32; i >= 0; i-- {
		if r&(1<<32) != 0 {
			q |= 1 << uint(i)
			r ^= p
		}
		r <<= 1
	}
	return reflect33(q)
}

// TestCRCConstants derives every folding constant of the kernel from
// the Castagnoli polynomial, and checks the rule against hash/crc32's
// own IEEE constants (r2r1, r4r3, r5 and rupoly in crc32_amd64.s).
func TestCRCConstants(t *testing.T) {
	const castagnoliP, ieeeP = 0x11EDC6F41, 0x104C11DB7
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"fold 2048 lo", crcFold2048Lo, foldConst(2048+32, castagnoliP)},
		{"fold 2048 hi", crcFold2048Hi, foldConst(2048-32, castagnoliP)},
		{"fold 512 lo", crcFold512Lo, foldConst(512+32, castagnoliP)},
		{"fold 512 hi", crcFold512Hi, foldConst(512-32, castagnoliP)},
		{"fold 128 lo", crcFold128Lo, foldConst(128+32, castagnoliP)},
		{"fold 128 hi", crcFold128Hi, foldConst(128-32, castagnoliP)},
		{"x^64", crcX64, foldConst(64, castagnoliP)},
		{"P′", crcPoly, reflect33(castagnoliP)},
		{"μ", crcMu, barrettMu(castagnoliP)},
		{"IEEE r1", 0x154442bd4, foldConst(512+32, ieeeP)},
		{"IEEE r2", 0x1c6e41596, foldConst(512-32, ieeeP)},
		{"IEEE r3", 0x1751997d0, foldConst(128+32, ieeeP)},
		{"IEEE r4", 0x0ccaa009e, foldConst(128-32, ieeeP)},
		{"IEEE r5", 0x163cd6124, foldConst(64, ieeeP)},
		{"IEEE P′", 0x1db710641, reflect33(ieeeP)},
		{"IEEE μ", 0x1f7011641, barrettMu(ieeeP)},
	} {
		if c.got != c.want {
			t.Errorf("%s: %#x, derived %#x", c.name, c.got, c.want)
		}
	}
}

// TestChecksumSectorMatchesCRC32: on every dispatch path, ChecksumSector
// is hash/crc32's CRC-32C for every length 0..4160 and for random
// lengths up to 64 KiB, at every start alignment 0..63.
func TestChecksumSectorMatchesCRC32(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	buf := make([]byte, 64<<10+64)
	rng.Read(buf)
	paths := crcPaths()
	check := func(a, n int) {
		b := buf[a : a+n]
		want := crc32.Checksum(b, castagnoli)
		for _, p := range paths {
			var got uint32
			withCLMUL(p.clmul, func() { got = ChecksumSector(b) })
			if got != want {
				t.Fatalf("%s path, %d bytes at alignment %d: %#x, want %#x", p.name, n, a, got, want)
			}
		}
	}
	for a := 0; a < 64; a++ {
		for n := 0; n <= 4160; n++ {
			check(a, n)
		}
		for i := 0; i < 16; i++ {
			check(a, rng.Intn(64<<10+1))
		}
	}
	if len(paths) == 1 {
		t.Log("no AVX-512 VPCLMULQDQ on this host: checked the hash/crc32 path only")
	}
}

// TestChecksumSectorAllocFree: a checksum allocates nothing on either
// path.
func TestChecksumSectorAllocFree(t *testing.T) {
	b := make([]byte, 4<<10+13)
	for _, p := range crcPaths() {
		withCLMUL(p.clmul, func() {
			if allocs := testing.AllocsPerRun(100, func() { ChecksumSector(b) }); allocs != 0 {
				t.Fatalf("%s path: %.1f allocations per checksum, want 0", p.name, allocs)
			}
		})
	}
}

// FuzzChecksumSector: ChecksumSector equals hash/crc32 on any bytes at
// any start offset, on every dispatch path. (Runs its seed corpus under
// plain `go test`; explore with `go test -fuzz FuzzChecksumSector`.)
func FuzzChecksumSector(f *testing.F) {
	rng := rand.New(rand.NewSource(72))
	for _, n := range []int{0, 1, 15, 255, 256, 257, 271, 272, 319, 320, 511, 512, 1000, 4096, 4160} {
		b := make([]byte, n)
		rng.Read(b)
		f.Add(b, uint8(n%64))
	}
	paths := crcPaths()
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		b := data[min(int(off)%64, len(data)):]
		want := crc32.Checksum(b, castagnoli)
		for _, p := range paths {
			var got uint32
			withCLMUL(p.clmul, func() { got = ChecksumSector(b) })
			if got != want {
				t.Fatalf("%s path, %d bytes: %#x, want %#x", p.name, len(b), got, want)
			}
		}
	})
}

// BenchmarkChecksumSector times one sector checksum on each dispatch
// path, at degraded-io's 4 KiB blocks and two larger sectors.
func BenchmarkChecksumSector(b *testing.B) {
	for _, size := range []int{4 << 10, 16 << 10, 32 << 10} {
		buf := make([]byte, size)
		rand.New(rand.NewSource(73)).Read(buf)
		for _, p := range crcPaths() {
			b.Run(fmt.Sprintf("%s/%dKiB", p.name, size>>10), func(b *testing.B) {
				withCLMUL(p.clmul, func() {
					b.SetBytes(int64(size))
					for i := 0; i < b.N; i++ {
						ChecksumSector(buf)
					}
				})
			})
		}
	}
}
