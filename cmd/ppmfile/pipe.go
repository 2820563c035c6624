package main

import (
	"context"
	"io"

	"ppm/internal/fault"
	"ppm/internal/stripe"
)

// The ppmfile commands drive the streaming pipeline with these adapters:
// a payload source that lays file bytes into stripe data sectors, a
// strip-store sink that writes encoded strips, a healing source that
// reads them back, and a restore sink that writes the recovered payload
// plus any rebuilt strips. Every strip goes through the command's
// fault.Store. At Depth > 1, Next runs on the engine's fill goroutine
// and Drain on the goroutine that called Run (at Depth 1 both run on
// that one), so each adapter owns its own scratch buffer, and decode's
// healSource reads the store while its restoreSink writes it.

// payloadSource produces exactly `stripes` stripes, laying the reader's
// bytes into the data sectors in index order and zero-padding the tail
// (an empty file still yields one zeroed stripe, matching the manifest).
type payloadSource struct {
	r       io.Reader
	dataPos []int
	stripes int
	eof     bool
}

func (s *payloadSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	if idx >= s.stripes {
		return nil, nil
	}
	for _, pos := range s.dataPos {
		sec := slab.Sector(pos)
		if s.eof {
			clear(sec)
			continue
		}
		n, err := io.ReadFull(s.r, sec)
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			s.eof = true
			clear(sec[n:])
		default:
			return nil, err
		}
	}
	return slab, nil
}

// storeSink writes encoded stripes through a fault.Store, recording
// each stripe's per-sector checksum row for the manifest as it goes.
// Drain runs strictly in stripe order, so sums[idx] lines up by append.
type storeSink struct {
	store fault.Store
	buf   []byte // one strip of scratch
	sums  [][]uint32
}

func (k *storeSink) Drain(idx int, st *stripe.Stripe) error {
	for j := 0; j < st.N(); j++ {
		if err := k.store.WriteStrip(idx, j, fault.GatherStrip(k.buf, st, j)); err != nil {
			return err
		}
	}
	k.sums = append(k.sums, fault.SectorChecksums(st))
	return nil
}

// healSource feeds the decode pipeline through a fault.Healer: each
// stripe is read with bounded retries, checksum-verified, and damage
// beyond the baseline (missing disks) is demoted to an erasure and
// re-decoded before the stripe enters the pipeline.
type healSource struct {
	h       *fault.Healer
	stripes int
	ctx     context.Context
}

func (s *healSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	if idx >= s.stripes {
		return nil, nil
	}
	if err := s.h.ReadStripe(s.ctx, idx, slab); err != nil {
		return nil, err
	}
	return slab, nil
}

// restoreSink writes the recovered payload to the output file, trimmed
// to the original size, and writes the rebuilt strips of the repair
// disks through the store.
type restoreSink struct {
	out       io.Writer
	dataPos   []int
	remaining int64
	store     fault.Store
	repair    []int  // disks whose strips are rebuilt
	buf       []byte // one strip of scratch for them
}

func (k *restoreSink) Drain(idx int, st *stripe.Stripe) error {
	for _, j := range k.repair {
		if err := k.store.WriteStrip(idx, j, fault.GatherStrip(k.buf, st, j)); err != nil {
			return err
		}
	}
	for _, pos := range k.dataPos {
		if k.remaining <= 0 {
			return nil
		}
		sec := st.Sector(pos)
		if int64(len(sec)) > k.remaining {
			sec = sec[:k.remaining]
		}
		n, err := k.out.Write(sec)
		k.remaining -= int64(n)
		if err != nil {
			return err
		}
	}
	return nil
}
