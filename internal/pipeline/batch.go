package pipeline

import (
	"ppm/internal/codes"
	"ppm/internal/stripe"
)

// SliceSource feeds an in-memory batch of stripes through the engine,
// zero-copy: each stripe is processed in place.
type SliceSource []*stripe.Stripe

// Next implements Source.
func (s SliceSource) Next(idx int, _ *stripe.Stripe) (*stripe.Stripe, error) {
	if idx >= len(s) {
		return nil, nil
	}
	return s[idx], nil
}

// NopSink discards drain notifications; batch stripes are modified in
// place, so there is nothing to move.
type NopSink struct{}

// Drain implements Sink.
func (NopSink) Drain(int, *stripe.Stripe) error { return nil }

// Batch runs one scenario over an in-memory batch of stripes: the plan
// is compiled once and the stripes are decoded in place, sharded across
// the engine's compute shards with Depth of them in flight. Encoding is
// the batch whose scenario is codes.EncodingScenario(c).
//
// Callers with many batches should build an Engine once (sectorSize 0:
// the batch path needs no slabs) and Run it with a SliceSource per
// batch instead, amortising engine construction too.
func Batch(c codes.Code, sc codes.Scenario, stripes []*stripe.Stripe, cfg Config) error {
	if len(stripes) == 0 {
		return nil
	}
	e, err := New(c, sc, 0, cfg)
	if err != nil {
		return err
	}
	defer e.Close()
	_, err = e.Run(SliceSource(stripes), NopSink{})
	return err
}
