package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/decode"
	"ppm/internal/fault"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// degradedIO serves small I/O against an LRC(12,2,2) array of 4 KiB
// blocks held in a fault.MemStore, with disk 3 lost and one flipped byte
// in 2% of the stripes, open loop. 80% of requests read one data block
// through fault.Healer.ReadSectors; 20% read-modify-write one live data
// block: read it and its parities, patch them with
// core.Updater.UpdateRange, write them back and update their checksums.
// Stripes are drawn Zipf(1.2). The repair planner and plans, checksums,
// Updater and store do most of the work and the kernels little, and
// reads and writes share those layers, so a gain for one that costs the
// other shows.
type degradedIO struct {
	seed     int64
	phaseNo  int64
	store    *fault.MemStore
	sums     [][]uint32 // expected CRC-32C per stripe, per sector; writes update it
	baseline codes.Scenario
	perm     []int   // Zipf rank → stripe, so hot stripes are scattered
	data     []int   // data sectors: reads pick among them
	liveData []int   // data sectors on live disks: writes pick among them
	writeSet [][]int // per data sector: it and the parities its update patches
	blocks   [][]byte
	corrupt  []int8 // per stripe: the block holding a flipped byte, or -1
	replay   []*stripe.Stripe

	code    *codes.LRC
	updater *core.Updater
	healers [dioWorkers]*fault.Healer
	stores  [dioWorkers]*timedStore
	scratch [dioWorkers]*stripe.Stripe
	wanted  [dioWorkers][]int
	stats   *kernel.Stats
	writes  atomic.Int64

	// written marks the stripes written since the last check. Requests
	// are keyed by stripe, writes exclusively: a write never overlaps
	// another request of its stripe, and reads and writes of a stripe
	// keep request order. That orders every access to a stripe's data,
	// checksums and written flag, and makes every run of a seed see the
	// same data and the same HealStats counts.
	written []bool

	ops []dioOp
	tr  *tracer
}

// dioOp is one degraded-io request.
type dioOp struct {
	stripe int32
	sector int8
	write  bool
	block  uint8 // index into blocks: the new content of a write
}

const (
	dioSector      = 4 << 10
	dioStripes     = 4096 // 256 MiB
	dioLost        = 3
	dioCorruptPct  = 2
	dioWritePct    = 20
	dioZipf        = 1.2
	dioBlocks      = 64
	dioWorkers     = 2
	dioNominal     = 100_000 // requests per second
	dioLimit       = time.Millisecond
	dioCapacityMax = 600_000 // requests per second the capacity phase has room for
	// At 100k requests per second, tracing every eighth keeps a run
	// within the span buffer.
	dioTraceEvery = 8
)

// dioLadder is the rate ladder max_rps climbs, nominal first.
var dioLadder = []float64{dioNominal, 150_000, 200_000}

func newDIOCode() (*codes.LRC, error) { return codes.NewLRC(12, 2, 2) }

func (d *degradedIO) describe() string {
	return fmt.Sprintf("%s, %d KiB blocks, %d stripes (%d MiB) in a fault.MemStore, disk %d lost, a flipped byte in %d%% of stripes; %d%% reads / %d%% read-modify-writes, Zipf(%.1f) stripes; open loop, %d service goroutines, %d/s nominal, p99 limit %v",
		d.code.Name(), dioSector>>10, dioStripes, dioStripes*d.code.NumStrips()*dioSector>>20, dioLost, dioCorruptPct,
		100-dioWritePct, dioWritePct, dioZipf, dioWorkers, dioNominal, dioLimit)
}

func (d *degradedIO) fixture(seed int64) error {
	c, err := newDIOCode()
	if err != nil {
		return err
	}
	d.seed = seed
	n := c.NumStrips()
	d.store = fault.NewMemStore(n, dioSector)
	d.sums = make([][]uint32, dioStripes)
	d.data = codes.DataPositions(c)
	gen := prng(seed)
	st, err := stripe.New(n, c.NumRows(), dioSector)
	if err != nil {
		return err
	}
	// Highest stripe first: MemStore.WriteStrip grows a disk's slab to
	// the stripe written and copies it, so ascending order re-grows every
	// slab on every strip (minutes instead of under a second).
	for idx := dioStripes - 1; idx >= 0; idx-- {
		for _, p := range d.data {
			gen.fill(st.Sector(p))
		}
		if err := decode.Encode(c, st, decode.Options{}); err != nil {
			return fmt.Errorf("golden encode: %w", err)
		}
		d.sums[idx] = fault.SectorChecksums(st)
		if err := fault.StoreStripe(d.store, idx, st); err != nil {
			return err
		}
		if idx < replayStripes {
			d.replay = append(d.replay, st.Clone())
		}
	}
	d.store.Lose(dioLost)
	if d.baseline, err = codes.NewScenario(c, []int{dioLost}); err != nil {
		return err
	}

	// Silent corruption: one flipped byte in a live block of 2% of the
	// stripes. The checksums keep the clean values, so the healer finds
	// the damage; a write over the block clears it.
	rng := rngFor(seed, 2)
	buf := make([]byte, dioSector)
	d.corrupt = make([]int8, dioStripes)
	for i := range d.corrupt {
		d.corrupt[i] = -1
	}
	for _, idx := range rng.Perm(dioStripes)[:dioStripes*dioCorruptPct/100] {
		s := rng.Intn(n - 1)
		if s >= dioLost {
			s++
		}
		d.corrupt[idx] = int8(s)
		if err := d.store.ReadStrip(idx, s, buf); err != nil {
			return err
		}
		fault.FlipByte(buf, rng)
		if err := d.store.WriteStrip(idx, s, buf); err != nil {
			return err
		}
	}
	d.perm = rngFor(seed, 3).Perm(dioStripes)

	u, err := core.NewUpdater(c)
	if err != nil {
		return err
	}
	d.writeSet = make([][]int, n)
	for _, s := range d.data {
		if s == dioLost {
			continue
		}
		terms, err := u.Terms(s)
		if err != nil {
			return err
		}
		set := []int{s}
		for _, t := range terms {
			set = append(set, t.Parity)
		}
		sort.Ints(set)
		d.liveData = append(d.liveData, s)
		d.writeSet[s] = set
	}
	for i := 0; i < dioBlocks; i++ {
		b := make([]byte, dioSector)
		gen.fill(b)
		d.blocks = append(d.blocks, b)
	}

	d.written = make([]bool, dioStripes)
	return nil
}

func (d *degradedIO) setup() error {
	c, err := newDIOCode()
	if err != nil {
		return err
	}
	u, err := core.NewUpdater(c)
	if err != nil {
		return err
	}
	d.code, d.updater, d.stats = c, u, &kernel.Stats{}
	for w := range d.healers {
		d.healers[w] = &fault.Healer{Code: c, Store: d.store, Sums: d.sums, Baseline: d.baseline}
		if d.scratch[w], err = stripe.New(c.NumStrips(), c.NumRows(), dioSector); err != nil {
			return err
		}
		d.wanted[w] = []int{dioLost}
		d.stores[w] = &timedStore{Store: d.store}
		// The cold operation: a degraded read of the lost block, which
		// plans and caches the healer's first repair.
		if err := d.read(d.healers[w], w, 0, dioLost, nil, noSpan, 0); err != nil {
			return fmt.Errorf("cold read: %w", err)
		}
	}
	return nil
}

func (d *degradedIO) teardown() {}

func (d *degradedIO) corruptGolden() { d.sums[d.perm[0]][dioLost] ^= 1 }

// genOps draws n requests.
func (d *degradedIO) genOps(rng *rand.Rand, n int) []dioOp {
	z := rand.NewZipf(rng, dioZipf, 1, dioStripes-1)
	ops := make([]dioOp, n)
	for i := range ops {
		op := dioOp{stripe: int32(d.perm[z.Uint64()])}
		if rng.Intn(100) < dioWritePct {
			op.write = true
			op.sector = int8(d.liveData[rng.Intn(len(d.liveData))])
			op.block = uint8(rng.Intn(dioBlocks))
		} else {
			op.sector = int8(d.data[rng.Intn(len(d.data))])
		}
		ops[i] = op
	}
	return ops
}

func (d *degradedIO) key(i int) (int, bool) { return int(d.ops[i].stripe), d.ops[i].write }

func (d *degradedIO) class(i int) string {
	if d.ops[i].write {
		return "writes"
	}
	return "reads"
}

func (d *degradedIO) serve(w, i int) error {
	op := d.ops[i]
	tr := sampled(d.tr, i, dioTraceEvery)
	id := tr.begin(spRequest, noSpan, int32(i))
	var err error
	if op.write {
		err = d.rmw(w, int(op.stripe), int(op.sector), int(op.block), tr, id, int32(i))
	} else {
		err = d.read(d.healers[w], w, int(op.stripe), int(op.sector), tr, id, int32(i))
	}
	tr.end(id)
	return err
}

// read reads one block through healer h and checks it.
func (d *degradedIO) read(h *fault.Healer, w, idx, sector int, tr *tracer, parent, req int32) error {
	st, ts := d.scratch[w], d.stores[w]
	wanted := d.wanted[w]
	wanted[0] = sector
	rid := tr.begin(spReadSectors, parent, req)
	ts.tr, ts.parent, ts.req = tr, rid, req
	err := h.ReadSectors(context.Background(), idx, st, wanted)
	tr.end(rid)
	if err != nil {
		return fmt.Errorf("read stripe %d block %d: %w", idx, sector, err)
	}
	if fault.ChecksumSector(st.Sector(sector)) != d.sums[idx][sector] {
		return fmt.Errorf("read stripe %d block %d: wrong bytes", idx, sector)
	}
	return nil
}

// rmw overwrites one live data block with blocks[block].
func (d *degradedIO) rmw(w, idx, sector, block int, tr *tracer, parent, req int32) error {
	h, st, ts := d.healers[w], d.scratch[w], d.stores[w]
	set := d.writeSet[sector]
	rid := tr.begin(spReadSectors, parent, req)
	ts.tr, ts.parent, ts.req = tr, rid, req
	err := h.ReadSectors(context.Background(), idx, st, set)
	tr.end(rid)
	if err != nil {
		return fmt.Errorf("write stripe %d block %d: read: %w", idx, sector, err)
	}
	sums := d.sums[idx]
	for _, s := range set {
		if fault.ChecksumSector(st.Sector(s)) != sums[s] {
			return fmt.Errorf("write stripe %d block %d: read block %d: wrong bytes", idx, sector, s)
		}
	}
	uid := tr.begin(spUpdate, parent, req)
	err = d.updater.UpdateRange(st, sector, d.blocks[block], 0, dioSector, d.stats)
	tr.end(uid)
	if err != nil {
		return fmt.Errorf("write stripe %d block %d: %w", idx, sector, err)
	}
	var store fault.Store = d.store
	if tr != nil {
		ts.parent = parent
		store = ts
	}
	for _, s := range set {
		if err := store.WriteStrip(idx, s, st.Sector(s)); err != nil {
			return fmt.Errorf("write stripe %d block %d: %w", idx, s, err)
		}
		sums[s] = fault.ChecksumSector(st.Sector(s))
		if int(d.corrupt[idx]) == s {
			d.corrupt[idx] = -1
		}
	}
	d.written[idx] = true
	d.writes.Add(1)
	return nil
}

// phase drives one rate step (rate > 0) or the closed-loop capacity
// phase (rate 0) for dur.
func (d *degradedIO) phase(rate float64, dur time.Duration, tr *tracer) *phase {
	d.phaseNo++
	rng := rngFor(d.seed, 100+d.phaseNo)
	var due []int64
	n := int(dur.Seconds()*dioCapacityMax) + 64
	if rate > 0 {
		due = schedule(rng, rate, dur)
		n = len(due)
	}
	d.ops = d.genOps(rng, n)
	d.tr = tr
	for w, h := range d.healers {
		h.Store = d.store
		if tr != nil {
			h.Store = d.stores[w]
		}
	}
	return drive(dioWorkers, n, due, dur, d)
}

func (d *degradedIO) healStats() fault.HealStats {
	var s fault.HealStats
	for _, h := range d.healers {
		s.Add(h.Stats)
	}
	return s
}

func (d *degradedIO) measure(dur time.Duration, tr *tracer, nominalOnly bool) *measured {
	before := d.healStats()
	d.stats.Reset()
	d.writes.Store(0)
	out := openLoop(d, dur, tr, dioTraceEvery, nominalOnly, dioLadder, dioLimit, dioSector)
	after := d.healStats()
	ops := float64(max(out.attempted, 1))
	out.layer = map[string]float64{
		"kernel.mult_xors_per_stripe": float64(d.stats.MultXORs()) / float64(max(d.writes.Load(), 1)),
		"fault.strips_read_per_op":    float64(after.StripsRead-before.StripsRead) / ops,
		"fault.replans":               float64(after.Replans - before.Replans),
		"fault.corrupt_sectors":       float64(after.CorruptSectors - before.CorruptSectors),
	}
	for _, h := range d.healers {
		h.Store = d.store
	}
	for idx, w := range d.written {
		if !w {
			continue
		}
		d.written[idx] = false
		out.attempted++
		if err := d.checkStripe(idx); err != nil {
			out.fail(fmt.Errorf("after-run check of stripe %d: %w", idx, err))
		}
	}
	return out
}

// checkStripe checks a written stripe with the traditional decoder: it
// rebuilds the lost block (and a block still holding its flipped byte)
// from the store, then requires the whole stripe to satisfy every
// parity-check equation and every block to match its checksum.
func (d *degradedIO) checkStripe(idx int) error {
	st := d.scratch[0]
	faulty := []int{dioLost}
	if c := int(d.corrupt[idx]); c >= 0 {
		faulty = append(faulty, c)
		sort.Ints(faulty)
	}
	sc, err := codes.NewScenario(d.code, faulty)
	if err != nil {
		return err
	}
	bad := sc.FaultySet()
	for s := 0; s < d.code.NumStrips(); s++ {
		if !bad[s] {
			if err := d.store.ReadStrip(idx, s, st.Sector(s)); err != nil {
				return err
			}
		}
	}
	if err := decode.Decode(d.code, st, sc, decode.Options{}); err != nil {
		return err
	}
	if ok, err := decode.Verify(d.code, st); err != nil || !ok {
		return fmt.Errorf("not a codeword (%v)", err)
	}
	if n := sectorsMatch(st, d.sums[idx], complement(d.code.NumStrips(), nil)); n > 0 {
		return fmt.Errorf("%d blocks differ from their checksums", n)
	}
	return nil
}

func (d *degradedIO) replayCase() replayCase {
	// The replay planner sees the request mix: one block per read, the
	// block and its parities per write.
	var seq [][]int
	for _, op := range d.genOps(rngFor(d.seed, 4), 4096) {
		if op.write {
			seq = append(seq, d.writeSet[op.sector])
		} else {
			seq = append(seq, []int{int(op.sector)})
		}
	}
	return replayCase{
		code:       d.code,
		sc:         d.baseline,
		sector:     dioSector,
		stripes:    d.replay,
		golden:     checksums(d.replay),
		plannerSeq: seq,
	}
}
