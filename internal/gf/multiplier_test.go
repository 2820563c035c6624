package gf

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestMultiplierMatchesMultXORs: every multiplier agrees with the
// field-level region op for random constants and data.
func TestMultiplierMatchesMultXORs(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for _, tf := range testFields {
		tf := tf
		t.Run(tf.name, func(t *testing.T) {
			n := 64 * tf.f.WordBytes()
			for trial := 0; trial < 20; trial++ {
				a := rng.Uint32() & tf.mask
				src := randRegion(rng, n)
				want := randRegion(rng, n)
				got := append([]byte(nil), want...)

				tf.f.MultXORs(want, src, a)
				m := MultiplierFor(tf.f, a)
				if m.Coefficient() != a {
					t.Fatalf("Coefficient() = %d, want %d", m.Coefficient(), a)
				}
				m.MultXOR(got, src)
				if !bytes.Equal(got, want) {
					t.Fatalf("a=%#x: multiplier disagrees with MultXORs", a)
				}
			}
		})
	}
}

func TestMultiplierSpecialConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	for _, tf := range testFields {
		n := 16 * tf.f.WordBytes()
		src := randRegion(rng, n)
		dst := randRegion(rng, n)
		before := append([]byte(nil), dst...)

		MultiplierFor(tf.f, 0).MultXOR(dst, src)
		if !bytes.Equal(dst, before) {
			t.Fatalf("%s: zero multiplier modified dst", tf.name)
		}
		MultiplierFor(tf.f, 1).MultXOR(dst, src)
		for i := range dst {
			if dst[i] != before[i]^src[i] {
				t.Fatalf("%s: one multiplier is not XOR", tf.name)
			}
		}
	}
}

// TestMultiplierConcurrent: a shared multiplier is safe under
// concurrent use on disjoint regions (the PPM executor does this).
func TestMultiplierConcurrent(t *testing.T) {
	m := MultiplierFor(GF16, 0x1234)
	src := make([]byte, 1024)
	rand.New(rand.NewSource(143)).Read(src)
	done := make(chan []byte, 8)
	for g := 0; g < 8; g++ {
		go func() {
			dst := make([]byte, 1024)
			m.MultXOR(dst, src)
			done <- dst
		}()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		if !bytes.Equal(first, <-done) {
			t.Fatal("concurrent multiplier results diverged")
		}
	}
}

func BenchmarkMultiplierVsMultXORs(b *testing.B) {
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	rand.New(rand.NewSource(144)).Read(src)
	b.Run("GF8-compiled", func(b *testing.B) {
		m := MultiplierFor(GF8, 0x12)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.MultXOR(dst, src)
		}
	})
	b.Run("GF16-fresh-tables", func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			GF16.MultXORs(dst, src, 0x1234)
		}
	})
	b.Run("GF16-compiled", func(b *testing.B) {
		m := MultiplierFor(GF16, 0x1234)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.MultXOR(dst, src)
		}
	})
	b.Run("GF32-fresh-tables", func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			GF32.MultXORs(dst, src, 0x12345678)
		}
	})
	b.Run("GF32-compiled", func(b *testing.B) {
		m := MultiplierFor(GF32, 0x12345678)
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.MultXOR(dst, src)
		}
	})
}
