package pipeline

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/stripe"
)

// TestBatchEncodeAllocationFree pins the pipeline's steady-state
// contract: after one warm-up run, encoding a multi-stripe batch
// through a reused engine performs zero heap allocations per run — the
// jobs, slabs and channel plumbing are fixed at New, the plan is
// compiled once, and the per-stripe compute draws its scratch from the
// executor pools. It holds for the staged engine and for Depth 1.
func TestBatchEncodeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool deliberately drops items; alloc counts are meaningless")
	}
	sd, err := codes.NewSD(8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const sector = 4096
	const stripes = 16
	batch := make([]*stripe.Stripe, stripes)
	for i := range batch {
		st, err := stripe.New(sd.NumStrips(), sd.NumRows(), sector)
		if err != nil {
			t.Fatal(err)
		}
		st.FillDataRandom(int64(i), codes.DataPositions(sd))
		batch[i] = st
	}

	for _, cfg := range []Config{{Depth: 4, Workers: 2}, {Depth: 1}} {
		t.Run(fmt.Sprintf("depth=%d", cfg.Depth), func(t *testing.T) {
			e, err := New(sd, codes.EncodingScenario(sd), 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			// Box the source interface once: a SliceSource is a slice
			// header, so converting it to Source at every call would
			// itself allocate.
			var src Source = SliceSource(batch)

			// Warm up: first run populates the executor's session/scratch pools.
			if _, err := e.Run(src, NopSink{}); err != nil {
				t.Fatal(err)
			}

			if avg := testing.AllocsPerRun(10, func() {
				if _, err := e.Run(src, NopSink{}); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("steady-state batch encode allocates %.1f/op, want 0", avg)
			}
		})
	}
}

// TestWarmStreamAllocatesNothingPerStripe: a warm EncodeStream or
// DecodeStream allocates nothing per stripe, whichever way it takes its
// input: a bytes.Reader pushes everything at once, the stripes are
// views over it, and the views are allocated once per call; an
// io.MultiReader of two bytes.Readers pushes twice and carries the
// stripe its split falls in; an io.SectionReader is filled by the
// shards with ReadAt. A 16-stripe call allocates about as much as a
// 2-stripe one. Engine, plan and reader set-up allocate the same in
// both; a staged engine's goroutines may add one now and then, far
// below the 14 of one allocation per extra stripe.
func TestWarmStreamAllocatesNothingPerStripe(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool deliberately drops items; alloc counts are meaningless")
	}
	sd, err := codes.NewSD(8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const sector = 4096
	stripePayload := len(codes.DataPositions(sd)) * sector
	sc, err := sd.WorstCaseScenario(rand.New(rand.NewSource(3)), sd.S())
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(nil)
	var pushed io.Reader = r
	readers := []struct {
		name string
		of   func(b []byte) io.Reader
	}{
		{"bytes.Reader", func(b []byte) io.Reader { r.Reset(b); return pushed }},
		{"MultiReader", func(b []byte) io.Reader {
			k := len(b)/2 + 3 // inside a stripe
			return io.MultiReader(bytes.NewReader(b[:k]), bytes.NewReader(b[k:]))
		}},
		{"SectionReader", func(b []byte) io.Reader { r.Reset(b); return io.NewSectionReader(r, 0, int64(len(b))) }},
	}
	for _, cfg := range []Config{{Depth: 4, Workers: 2}, {Depth: 1}} {
		t.Run(fmt.Sprintf("depth=%d", cfg.Depth), func(t *testing.T) {
			for _, rd := range readers {
				t.Run(rd.name, func(t *testing.T) {
					allocs := func(stripes int) (enc, dec float64) {
						data := payload(stripes * stripePayload)
						var img bytes.Buffer
						if _, err := EncodeStream(sd, &img, bytes.NewReader(data), sector, cfg); err != nil {
							t.Fatal(err)
						}
						images := img.Bytes()
						enc = testing.AllocsPerRun(10, func() {
							if _, err := EncodeStream(sd, io.Discard, rd.of(data), sector, cfg); err != nil {
								t.Fatal(err)
							}
						})
						dec = testing.AllocsPerRun(10, func() {
							if _, err := DecodeStream(sd, io.Discard, rd.of(images), sc, int64(len(data)), sector, cfg); err != nil {
								t.Fatal(err)
							}
						})
						return enc, dec
					}
					const extra = 16 - 2
					enc2, dec2 := allocs(2)
					enc16, dec16 := allocs(16)
					if enc16-enc2 >= extra/2 {
						t.Errorf("EncodeStream allocates %.1f/op over 16 stripes, %.1f over 2: it allocates per stripe", enc16, enc2)
					}
					if dec16-dec2 >= extra/2 {
						t.Errorf("DecodeStream allocates %.1f/op over 16 stripes, %.1f over 2: it allocates per stripe", dec16, dec2)
					}
				})
			}
		})
	}
}
