package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/decode"
	"ppm/internal/kernel"
	"ppm/internal/pipeline"
	"ppm/internal/stripe"
)

// ingest encodes a 64 MiB seeded payload with pipeline.EncodeStream over
// SD^{2,2}_{8,16} at GF(2^8), one call after another, closed loop with
// one client: the write direction of the same kernel and pipeline
// layers. Every call builds its own engine and plan, so plan-build cost
// shows here and not in rebuild.
type ingest struct {
	payload  []byte
	golden   [][]uint32 // per stripe image, per sector
	parity   []bool     // parity[pos]: the encoder computes this sector
	perPay   []int64    // payload bytes carried by each stripe
	stripes  int
	chosen   int64
	replay   []*stripe.Stripe
	replaySc codes.Scenario

	code  *codes.SD
	stats *kernel.Stats
}

const (
	ingestSector  = 32 << 10
	ingestPayload = 64 << 20
	// One call writes about 5000 sector-sized reads and writes; tracing
	// every fourth call keeps a run within the span buffer.
	ingestTraceEvery = 4
)

func newIngestCode() (*codes.SD, error) { return codes.NewSD(8, 16, 2, 2) }

func (g *ingest) describe() string {
	return fmt.Sprintf("%s, pipeline.EncodeStream of a %d MiB payload per call (%d stripes), %d KiB sectors; closed loop, 1 client",
		g.code.Name(), ingestPayload>>20, g.stripes, ingestSector>>10)
}

func (g *ingest) fixture(seed int64) error {
	c, err := newIngestCode()
	if err != nil {
		return err
	}
	g.payload = make([]byte, ingestPayload)
	gen := prng(seed)
	gen.fill(g.payload)
	data := codes.DataPositions(c)
	perStripe := len(data) * ingestSector
	g.stripes = (ingestPayload + perStripe - 1) / perStripe
	g.parity = make([]bool, codes.TotalSectors(c))
	for _, p := range c.ParityPositions() {
		g.parity[p] = true
	}
	// Lay the payload out the way EncodeStream does: data positions in
	// index order, the last stripe zero-padded.
	off := 0
	for s := 0; s < g.stripes; s++ {
		st, err := stripe.New(c.NumStrips(), c.NumRows(), ingestSector)
		if err != nil {
			return err
		}
		start := off
		for _, p := range data {
			off += copy(st.Sector(p), g.payload[min(off, len(g.payload)):])
		}
		if err := decode.Encode(c, st, decode.Options{}); err != nil {
			return fmt.Errorf("golden encode: %w", err)
		}
		g.golden = append(g.golden, checksums([]*stripe.Stripe{st})[0])
		g.perPay = append(g.perPay, int64(off-start))
		if len(g.replay) < replayStripes {
			g.replay = append(g.replay, st)
		}
	}
	g.replaySc = codes.EncodingScenario(c)
	plan, err := core.BuildPlan(c, g.replaySc, core.StrategyAuto)
	if err != nil {
		return err
	}
	g.chosen = plan.Costs.Chosen
	return nil
}

func (g *ingest) setup() error {
	c, err := newIngestCode()
	if err != nil {
		return err
	}
	g.code, g.stats = c, &kernel.Stats{}
	bad, err := g.encode(nil, nil, 0, 0, true)
	if err == nil && bad > 0 {
		err = fmt.Errorf("cold call: %d sectors differ from golden", bad)
	}
	return err
}

func (g *ingest) teardown() {}

func (g *ingest) corruptGolden() { g.golden[0][g.replaySc.Faulty[0]] ^= 1 }

// encode runs one EncodeStream call and returns the number of output
// sectors that differ from golden. all checks every sector; otherwise
// only the parity sectors the encoder computes are checked (the data
// sectors are the payload copied through).
func (g *ingest) encode(tr *tracer, m *meter, t0 int64, req int32, all bool) (int64, error) {
	id := tr.begin(spRun, noSpan, req)
	w := &imageCheck{g: g, all: all, meter: m, t0: t0, tr: tr, parent: id, req: req}
	var src io.Reader = bytes.NewReader(g.payload)
	if tr != nil {
		src = &tracedReader{r: src, tr: tr, parent: id, req: req}
	}
	res, err := pipeline.EncodeStream(g.code, w, src, ingestSector, pipeline.Config{Stats: g.stats})
	tr.end(id)
	if err != nil {
		return 0, err
	}
	want := g.stripes * len(g.parity)
	if res.Bytes != ingestPayload || res.Stripes != g.stripes || w.sec != want || w.off != 0 {
		return 0, fmt.Errorf("encoded %d payload bytes into %d stripes (%d sectors), want %d bytes, %d stripes (%d sectors)",
			res.Bytes, res.Stripes, w.sec, ingestPayload, g.stripes, want)
	}
	return w.bad, nil
}

func (g *ingest) measure(d time.Duration, tr *tracer, _ bool) *measured {
	out := &measured{}
	m := newMeter(d)
	g.stats.Reset()
	calls := int64(0)
	t0 := nowNs()
	last := t0
	for req := int32(0); nowNs()-t0 < int64(d); req++ {
		s := nowNs()
		out.late = max(out.late, s-last)
		t := sampled(tr, int(req), ingestTraceEvery)
		bad, err := g.encode(t, m, t0, req, false)
		last = nowNs()
		out.observe(last-s, t != nil)
		out.attempted++
		calls++
		switch {
		case err != nil:
			out.fail(err)
		case bad > 0:
			out.fail(fmt.Errorf("call %d: %d parity sectors differ from golden", req, bad))
		}
	}
	out.gbps = m.gbps(nowNs() - t0)
	stripes := calls * int64(g.stripes)
	checkMultXORs(out, g.stats, stripes, g.chosen)
	out.layer = map[string]float64{"kernel.mult_xors_per_stripe": float64(g.stats.MultXORs()) / float64(max(stripes, 1))}
	return out
}

func (g *ingest) replayCase() replayCase {
	return replayCase{
		code:    g.code,
		sc:      g.replaySc,
		sector:  ingestSector,
		stripes: g.replay,
		golden:  checksums(g.replay),
	}
}

// imageCheck is the io.Writer EncodeStream writes stripe images to. It
// checks each sector against the golden CRC-32C as the bytes arrive, in
// any chunking, and credits the stripe's payload to the meter when its
// image is complete.
type imageCheck struct {
	g      *ingest
	all    bool
	off    int // bytes into the current sector
	sec    int // sectors completed
	crc    uint32
	bad    int64
	meter  *meter
	t0     int64
	tr     *tracer
	parent int32
	req    int32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (w *imageCheck) Write(p []byte) (int, error) {
	id := w.tr.begin(spSinkDrain, w.parent, w.req)
	n := len(p)
	per := len(w.g.parity)
	for len(p) > 0 {
		pos := w.sec % per
		k := min(len(p), ingestSector-w.off)
		check := w.all || w.g.parity[pos]
		if check {
			w.crc = crc32.Update(w.crc, castagnoli, p[:k])
		}
		w.off += k
		p = p[k:]
		if w.off < ingestSector {
			continue
		}
		s := w.sec / per
		if check && (s >= len(w.g.golden) || w.crc != w.g.golden[s][pos]) {
			w.bad++
		}
		w.sec++
		w.off, w.crc = 0, 0
		if pos == per-1 && s < len(w.g.perPay) {
			w.meter.add(nowNs()-w.t0, w.g.perPay[s])
		}
	}
	w.tr.end(id)
	return n, nil
}

// tracedReader records a span around every Read EncodeStream makes.
type tracedReader struct {
	r      io.Reader
	tr     *tracer
	parent int32
	req    int32
}

func (r *tracedReader) Read(p []byte) (int, error) {
	id := r.tr.begin(spSourceNext, r.parent, r.req)
	n, err := r.r.Read(p)
	r.tr.end(id)
	return n, err
}
