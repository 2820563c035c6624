package pipeline

import (
	"fmt"
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
