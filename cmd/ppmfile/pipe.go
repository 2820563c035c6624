package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"ppm/internal/fault"
	"ppm/internal/stripe"
)

// The ppmfile commands drive the streaming pipeline with these adapters:
// a payload source that lays file bytes into stripe data sectors, a
// strip-store sink over the per-disk files, a healing source that reads
// them back, and a restore sink that writes the recovered payload plus
// any repaired strips.
// Source methods run on the pipeline's fill goroutine and sink methods
// on the drain goroutine, so each adapter owns its own scratch buffer.

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

// storeSink writes encoded stripes strip by strip through a fault.Store
// (the raw diskStore, or a fault-injecting wrapper around it), recording
// each stripe's per-sector checksum row for the manifest as it goes.
// Drain runs strictly in stripe order, so sums[idx] lines up by append.
type storeSink struct {
	store fault.Store
	mf    manifest
	buf   []byte
	sums  [][]uint32
}

func (k *storeSink) Drain(idx int, st *stripe.Stripe) error {
	if k.buf == nil {
		k.buf = make([]byte, k.store.StripBytes())
	}
	sector := k.mf.SectorSize
	for j := 0; j < k.mf.N; j++ {
		for i := 0; i < k.mf.R; i++ {
			copy(k.buf[i*sector:(i+1)*sector], st.SectorAt(i, j))
		}
		if err := k.store.WriteStrip(idx, j, k.buf); err != nil {
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
// to the original size, and rebuilds missing strip files in place.
type restoreSink struct {
	out       io.Writer
	dataPos   []int
	remaining int64
	repair    map[int]*os.File // disk -> replacement strip file
	mf        manifest
	buf       []byte // one strip of scratch for repair writes
}

func (k *restoreSink) Drain(idx int, st *stripe.Stripe) error {
	stripBytes := k.mf.R * k.mf.SectorSize
	for j, f := range k.repair {
		if k.buf == nil {
			k.buf = make([]byte, stripBytes)
		}
		for i := 0; i < k.mf.R; i++ {
			copy(k.buf[i*k.mf.SectorSize:(i+1)*k.mf.SectorSize], st.SectorAt(i, j))
		}
		if _, err := f.WriteAt(k.buf, int64(idx)*int64(stripBytes)); err != nil {
			return fmt.Errorf("rebuilding disk %d: %w", j, err)
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
