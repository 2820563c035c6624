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
// DecodeStream over a bytes.Reader, which the shards fill with ReadAt,
// allocates nothing per stripe: a 16-stripe call allocates about as
// much as a 2-stripe one. Engine and plan set-up allocate the same in
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
	for _, cfg := range []Config{{Depth: 4, Workers: 2}, {Depth: 1}} {
		t.Run(fmt.Sprintf("depth=%d", cfg.Depth), func(t *testing.T) {
			allocs := func(stripes int) (enc, dec float64) {
				data := payload(stripes * stripePayload)
				var img bytes.Buffer
				if _, err := EncodeStream(sd, &img, bytes.NewReader(data), sector, cfg); err != nil {
					t.Fatal(err)
				}
				images := img.Bytes()
				r := bytes.NewReader(nil)
				var src io.Reader = r
				enc = testing.AllocsPerRun(10, func() {
					r.Reset(data)
					if _, err := EncodeStream(sd, io.Discard, src, sector, cfg); err != nil {
						t.Fatal(err)
					}
				})
				dec = testing.AllocsPerRun(10, func() {
					r.Reset(images)
					if _, err := DecodeStream(sd, io.Discard, src, sc, int64(len(data)), sector, cfg); err != nil {
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
}
