package decode

import (
	"math/rand"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/stripe"
)

// BenchmarkTraditionalDecode times one per-call traditional decode —
// Steps 1-3 and Step 4 on every call, no plan reuse — and one Verify,
// on the repository benchmark's three SD shapes:
//
//   - rebuild: SD(16,16,2,2) worst case (z = 1), 16 KiB sectors;
//   - ingest: SD(8,16,2,2) encode, 32 KiB sectors;
//   - serve: SD(8,16,2,2) worst case (z = 1), 4 KiB sectors.
//
// Run it with -benchmem: allocations per call are part of the result.
func BenchmarkTraditionalDecode(b *testing.B) {
	for _, sh := range []struct {
		name   string
		n      int
		sector int
		encode bool
	}{
		{"rebuild", 16, 16 << 10, false},
		{"ingest", 8, 32 << 10, true},
		{"serve", 8, 4 << 10, false},
	} {
		sd, err := codes.NewSD(sh.n, 16, 2, 2)
		if err != nil {
			b.Fatal(err)
		}
		sc := codes.EncodingScenario(sd)
		if !sh.encode {
			if sc, err = sd.WorstCaseScenario(rand.New(rand.NewSource(1)), 1); err != nil {
				b.Fatal(err)
			}
		}
		st, err := stripe.New(sd.NumStrips(), sd.NumRows(), sh.sector)
		if err != nil {
			b.Fatal(err)
		}
		st.FillDataRandom(1, codes.DataPositions(sd))
		if err := Encode(sd, st, Options{}); err != nil {
			b.Fatal(err)
		}
		b.Run(sh.name+"/decode", func(b *testing.B) {
			work := st.Clone()
			b.SetBytes(int64(len(sc.Faulty) * sh.sector))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Decode(sd, work, sc, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sh.name+"/verify", func(b *testing.B) {
			b.SetBytes(int64(st.TotalBytes()))
			for i := 0; i < b.N; i++ {
				if ok, err := Verify(sd, st); err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}
