package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"ppm/internal/codes"
	"ppm/internal/decode"
	"ppm/internal/fault"
	"ppm/internal/stripe"
)

// prng is splitmix64: a fast, seeded byte source for fixture data.
type prng uint64

func (p *prng) next() uint64 {
	*p += 0x9e3779b97f4a7c15
	z := uint64(*p)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *prng) fill(b []byte) {
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, p.next())
		b = b[8:]
	}
	if len(b) > 0 {
		var t [8]byte
		binary.LittleEndian.PutUint64(t[:], p.next())
		copy(b, t[:])
	}
}

// rngFor derives an independent math/rand source for one use of a seed.
func rngFor(seed int64, use int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + use))
}

// goldenStripes builds count stripes of seeded data, encoded with the
// traditional whole-matrix encoder of internal/decode — the paper's
// baseline, independent of the PPM executor, pipeline and kernels'
// compiled paths the workloads measure.
func goldenStripes(c codes.Code, sector, count int, seed int64) ([]*stripe.Stripe, error) {
	data := codes.DataPositions(c)
	gen := prng(seed)
	out := make([]*stripe.Stripe, count)
	for i := range out {
		st, err := stripe.New(c.NumStrips(), c.NumRows(), sector)
		if err != nil {
			return nil, err
		}
		for _, p := range data {
			gen.fill(st.Sector(p))
		}
		if err := decode.Encode(c, st, decode.Options{}); err != nil {
			return nil, fmt.Errorf("golden encode: %w", err)
		}
		out[i] = st
	}
	return out, nil
}

// checksums returns the CRC-32C of every sector of every stripe.
func checksums(sts []*stripe.Stripe) [][]uint32 {
	out := make([][]uint32, len(sts))
	for i, st := range sts {
		out[i] = fault.SectorChecksums(st)
	}
	return out
}

// complement returns the indices in [0, n) not in set.
func complement(n int, set []int) []int {
	in := make(map[int]bool, len(set))
	for _, s := range set {
		in[s] = true
	}
	var out []int
	for i := 0; i < n; i++ {
		if !in[i] {
			out = append(out, i)
		}
	}
	return out
}

// stripeSource feeds a pipeline from golden stripes the way a degraded
// array does: only the readable (live) sectors are copied into the
// slab, so the faulty positions hold whatever the slab held before and
// only a real decode makes them right. It loops over the stripes until
// count stripes were produced.
type stripeSource struct {
	stripes []*stripe.Stripe
	live    []int
	count   int
	tr      *tracer
	parent  int32
	req     int32
}

func (s *stripeSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	if idx >= s.count {
		return nil, nil
	}
	id := s.tr.begin(spSourceNext, s.parent, s.req)
	src := s.stripes[idx%len(s.stripes)]
	for _, p := range s.live {
		copy(slab.Sector(p), src.Sector(p))
	}
	s.tr.end(id)
	return slab, nil
}

// crcSink checks the listed sectors of every drained stripe against the
// golden CRC-32C table and counts mismatches. It never fails the run
// itself, so a wrong stripe is counted and the stream still completes.
type crcSink struct {
	golden [][]uint32
	check  []int
	bad    int64
	meter  *meter
	t0     int64 // meter time origin, in tracer-independent UnixNano
	bytes  int64 // bytes credited to the meter per stripe
	tr     *tracer
	parent int32
	req    int32
}

func (k *crcSink) Drain(idx int, st *stripe.Stripe) error {
	id := k.tr.begin(spSinkDrain, k.parent, k.req)
	want := k.golden[idx%len(k.golden)]
	for _, p := range k.check {
		if fault.ChecksumSector(st.Sector(p)) != want[p] {
			k.bad++
		}
	}
	if k.meter != nil {
		k.meter.add(nowNs()-k.t0, k.bytes)
	}
	k.tr.end(id)
	return nil
}
