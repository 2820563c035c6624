package fault

import (
	"context"
	"errors"
	"fmt"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/repair"
	"ppm/internal/stripe"
)

// Checksummed degraded reads. Erasure decode only protects against
// *declared* losses: a sector that reads back wrong bytes without an
// I/O error flows straight through the decoder and "verifies" as
// garbage. Per-sector CRC-32C checksums recorded at encode time close
// the gap — a mismatching sector is *demoted to an erasure* and
// re-decoded from the survivors, turning silent corruption into the
// erasure problem the code already solves.

// SectorChecksums returns the CRC-32C of every sector of a stripe, in
// global (row-major) sector order — the per-stripe checksum row the
// ppmfile manifest records.
func SectorChecksums(st *stripe.Stripe) []uint32 {
	sums := make([]uint32, st.TotalSectors())
	for i := range sums {
		sums[i] = ChecksumSector(st.Sector(i))
	}
	return sums
}

// VerifyStripe compares every sector of st against the expected
// checksum row and returns the global indices that mismatch (nil when
// clean).
func VerifyStripe(st *stripe.Stripe, sums []uint32) []int {
	var bad []int
	for i := 0; i < st.TotalSectors() && i < len(sums); i++ {
		if ChecksumSector(st.Sector(i)) != sums[i] {
			bad = append(bad, i)
		}
	}
	return bad
}

// HealStats counts what a Healer saw and did across stripes.
type HealStats struct {
	// Stripes is the number of stripes read.
	Stripes int64 `json:"stripes"`
	// Retries is the number of extra read attempts transient faults
	// cost.
	Retries int64 `json:"retries"`
	// DemotedStrips counts strips demoted to erasures after exhausting
	// their read attempts (I/O errors, hangs past the deadline).
	DemotedStrips int64 `json:"demoted_strips"`
	// CorruptSectors counts sectors whose checksum exposed silent
	// corruption.
	CorruptSectors int64 `json:"corrupt_sectors"`
	// Healed counts stripes the healer re-decoded beyond the baseline
	// scenario.
	Healed int64 `json:"healed"`
	// StripsRead counts strips fetched clean from the store, by
	// ReadSectors and ReadStripe alike.
	StripsRead int64 `json:"strips_read"`
	// Replans counts read-loop iterations that widened the survivor set
	// after an unreadable or corrupt strip invalidated the plan.
	Replans int64 `json:"replans"`
}

// Add accumulates o into s.
func (s *HealStats) Add(o HealStats) {
	s.Stripes += o.Stripes
	s.Retries += o.Retries
	s.DemotedStrips += o.DemotedStrips
	s.CorruptSectors += o.CorruptSectors
	s.Healed += o.Healed
	s.StripsRead += o.StripsRead
	s.Replans += o.Replans
}

// Healer performs checksummed degraded stripe reads over a Store: each
// strip is read under the retry policy, surviving sectors are verified
// against the recorded checksums, and any strip or sector that cannot
// be read clean is demoted to an erasure and recovered with a decode
// over the survivors. A Healer is not safe for concurrent use; build
// one per goroutine (they share nothing but the store). Its scratch is
// sized once for the code, so a warm read that meets no fault
// allocates nothing.
type Healer struct {
	// Code is the stripe's erasure code.
	Code codes.Code
	// Store supplies the strips.
	Store Store
	// Sums[idx] is stripe idx's expected per-sector checksum row; a nil
	// Sums (or short row) skips checksum verification for the missing
	// entries — pre-checksum archives still get retry and erasure
	// demotion, just not silent-corruption detection.
	Sums [][]uint32
	// Baseline lists faulty sectors a downstream consumer already
	// repairs (ppmfile's pipeline decodes the missing disks with its
	// once-compiled plan). The healer re-decodes a stripe itself only
	// when damage *beyond* the baseline appears; baseline sectors are
	// zeroed and left to the consumer.
	Baseline codes.Scenario
	// Policy is the per-strip read retry policy.
	Policy Policy
	// Logf, when non-nil, receives one line per demotion/heal — the
	// degraded-read log.
	Logf func(format string, args ...any)

	// Stats accumulates across ReadStripe and ReadSectors calls.
	Stats HealStats

	planner *repair.Planner
	buf     []byte
	// Per-read scratch: per-sector baseline and faulty flags, per-disk
	// read and need flags, and the faulty list handed to the planner.
	// wanted is ReadStripe's wanted list, every sector outside the
	// baseline. Both lists are built in index order, so they are sorted
	// and unique.
	base, faulty []bool
	read, need   []bool
	nBase        int
	list, wanted []int
	// readOp reads strip (readIdx, readDisk) into readDst: the attempt
	// of a Policy without OpTimeout, built once instead of per read.
	readOp            func() ([]byte, error)
	readIdx, readDisk int
	readDst           []byte
}

// init lazily builds the repair planner (LRU-cached: repeated demotion
// patterns reuse their compiled plans) and scratch.
func (h *Healer) init() error {
	if h.planner != nil {
		return nil
	}
	n, total := h.Code.NumStrips(), codes.TotalSectors(h.Code)
	base := make([]bool, total)
	nBase := 0
	for _, s := range h.Baseline.Faulty {
		if s < 0 || s >= total {
			return fmt.Errorf("baseline sector %d out of range [0,%d)", s, total)
		}
		if !base[s] {
			base[s] = true
			nBase++
		}
	}
	h.base, h.nBase = base, nBase
	h.faulty = make([]bool, total)
	h.read, h.need = make([]bool, n), make([]bool, n)
	h.list, h.wanted = make([]int, 0, total), make([]int, 0, total-nBase)
	for s, b := range base {
		if !b {
			h.wanted = append(h.wanted, s)
		}
	}
	h.buf = make([]byte, h.Store.StripBytes())
	h.readOp = h.readScratch
	h.planner = repair.NewPlanner(h.Code)
	return nil
}

// begin readies the healer for one read of stripe idx into st: it
// checks st's geometry against the code and the store, and resets the
// faulty flags to the baseline.
func (h *Healer) begin(idx int, st *stripe.Stripe) error {
	if err := h.init(); err != nil {
		return fmt.Errorf("fault: stripe %d: %w", idx, err)
	}
	n, r := h.Code.NumStrips(), h.Code.NumRows()
	if st.N() != n || st.R() != r || st.R()*st.SectorSize() != h.Store.StripBytes() {
		return fmt.Errorf("fault: stripe %d: %dx%d stripe of %d-byte sectors does not fit code %s (%dx%d) over %d-byte strips",
			idx, st.N(), st.R(), st.SectorSize(), h.Code.Name(), n, r, h.Store.StripBytes())
	}
	copy(h.faulty, h.base)
	return nil
}

func (h *Healer) logf(format string, args ...any) {
	if h.Logf != nil {
		h.Logf(format, args...)
	}
}

// faultyList returns the faulty sectors, sorted, in the healer's reused
// list.
func (h *Healer) faultyList() []int {
	h.list = h.list[:0]
	for s, f := range h.faulty {
		if f {
			h.list = append(h.list, s)
		}
	}
	return h.list
}

// plan returns the repair plan for the wanted sectors over the current
// faulty set. An undecodable set keeps the healer's tolerance message.
func (h *Healer) plan(idx int, wanted []int) (*repair.Plan, error) {
	faulty := h.faultyList()
	plan, err := h.planner.Plan(codes.Scenario{Faulty: faulty}, wanted)
	if errors.Is(err, core.ErrUnrecoverable) {
		return nil, fmt.Errorf("fault: stripe %d: %d failures exceed %s's tolerance (unrecoverable)",
			idx, len(faulty), h.Code.Name())
	}
	if err != nil {
		return nil, fmt.Errorf("fault: stripe %d: repair planning: %w", idx, err)
	}
	return plan, nil
}

// demoteStrip turns strip j, unreadable after every attempt, into
// erasures.
func (h *Healer) demoteStrip(idx, j int, st *stripe.Stripe, err error) {
	h.Stats.DemotedStrips++
	h.logf("stripe %d disk %d: demoting strip to erasure: %v", idx, j, err)
	n := st.N()
	for i := 0; i < st.R(); i++ {
		clear(st.SectorAt(i, j))
		h.faulty[i*n+j] = true
	}
}

// verifySector checks live sector s against its recorded checksum and
// demotes it to an erasure on a mismatch, reporting whether it did.
func (h *Healer) verifySector(idx, s int, st *stripe.Stripe, sums []uint32) bool {
	if h.faulty[s] || s >= len(sums) || ChecksumSector(st.Sector(s)) == sums[s] {
		return false
	}
	h.Stats.CorruptSectors++
	n := st.N()
	h.logf("stripe %d sector %d (row %d, disk %d): checksum mismatch, demoting to erasure",
		idx, s, s/n, s%n)
	clear(st.Sector(s))
	h.faulty[s] = true
	return true
}

// DamagedDisks appends to dst the disks on which the last read found
// damage beyond the Baseline — a strip demoted after failed reads, or a
// sector whose checksum failed — and returns the extended slice. After
// a ReadStripe that returned nil these are the strips a repair must
// write back; every other strip read back clean.
func (h *Healer) DamagedDisks(dst []int) []int {
	n := h.Code.NumStrips()
	for j := 0; j < n; j++ {
		for s := j; s < len(h.faulty); s += n {
			if h.faulty[s] && !h.base[s] {
				dst = append(dst, j)
				break
			}
		}
	}
	return dst
}

// sums returns stripe idx's checksum row, nil when none was recorded.
func (h *Healer) sums(idx int) []uint32 {
	if idx < len(h.Sums) {
		return h.Sums[idx]
	}
	return nil
}

// ReadStripe fills st with stripe idx, degraded-reading around
// transient faults, hung strips and silent corruption: it is
// ReadSectors wanting every sector outside the Baseline. On return
// those sectors hold correct bytes — unless the damage exceeded the
// code's tolerance, which is the returned error. A strip that is
// baseline throughout is never read and is zeroed for the downstream
// decode, but for any sector a heal's repair plan recovers in passing.
func (h *Healer) ReadStripe(ctx context.Context, idx int, st *stripe.Stripe) error {
	if err := h.begin(idx, st); err != nil {
		return err
	}
	// No baseline sector is wanted, so a strip that is baseline
	// throughout is never read and keeps these zeros; a strip that is
	// baseline only in part is read whole over them.
	for s, b := range h.base {
		if b {
			clear(st.Sector(s))
		}
	}
	return h.ReadSectors(ctx, idx, st, h.wanted)
}

// readStrip fetches strip j of stripe idx into st under the retry
// policy, returning an error when every attempt failed.
func (h *Healer) readStrip(ctx context.Context, idx, j int, st *stripe.Stripe) error {
	var (
		buf      []byte
		attempts int
		err      error
	)
	// A one-row strip is one sector: without a deadline the attempt
	// reads it in place. After a failed read the sector is demoted
	// (demoteStrip clears it) or the whole call fails.
	inPlace := st.R() == 1 && h.Policy.OpTimeout == 0
	if h.Policy.OpTimeout > 0 {
		buf, attempts, err = DoVal(ctx, "", h.Policy, func() ([]byte, error) {
			// An abandoned hung read finishing late must not
			// scribble scratch the healer is already reusing.
			b := make([]byte, h.Store.StripBytes())
			if err := h.Store.ReadStrip(idx, j, b); err != nil {
				return nil, err
			}
			return b, nil
		})
	} else {
		h.readIdx, h.readDisk, h.readDst = idx, j, h.buf
		if inPlace {
			h.readDst = st.SectorAt(0, j)
		}
		buf, attempts, err = DoVal(ctx, "", h.Policy, h.readOp)
		h.readDst = nil // hold no reference to the caller's stripe
	}
	if attempts > 1 {
		// A context done before the first attempt reports 0 attempts.
		h.Stats.Retries += int64(attempts - 1)
	}
	if err != nil {
		// The op is named only when it failed, so a clean read formats
		// nothing.
		if oe, ok := err.(*OpError); ok {
			oe.Op = fmt.Sprintf("read stripe %d disk %d", idx, j)
		}
		return err
	}
	if !inPlace {
		ScatterStrip(st, j, buf)
	}
	return nil
}

// readScratch is readOp: one attempt at strip (readIdx, readDisk) into
// readDst, the healer's strip buffer or a one-row strip's sector.
func (h *Healer) readScratch() ([]byte, error) {
	if err := h.Store.ReadStrip(h.readIdx, h.readDisk, h.readDst); err != nil {
		return nil, err
	}
	return h.readDst, nil
}

// ReadSectors materialises only the wanted sectors of stripe idx into
// st — the minimal-read degraded path, and the healer's one read loop
// (ReadStripe runs it too). It plans the smallest survivor set for the
// baseline failures, reads only the strips holding it (plus the wanted
// live sectors), checksum-verifies what it read, and on any unreadable
// or corrupt strip demotes the damage to erasures and replans over a
// wider survivor set, until the wanted sectors are recovered or the
// damage exceeds the code's tolerance. Sectors outside the plan are
// left untouched — the caller must only consume the wanted ones. A
// wanted index outside the stripe is an error.
func (h *Healer) ReadSectors(ctx context.Context, idx int, st *stripe.Stripe, wanted []int) error {
	if err := h.begin(idx, st); err != nil {
		return err
	}
	for _, w := range wanted {
		if w < 0 || w >= len(h.faulty) {
			return fmt.Errorf("fault: stripe %d: wanted sector %d out of range [0,%d)", idx, w, len(h.faulty))
		}
	}
	h.Stats.Stripes++
	n := st.N()
	sums := h.sums(idx)
	clear(h.read)

	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			h.Stats.Replans++
		}
		plan, err := h.plan(idx, wanted)
		if err != nil {
			return err
		}

		// Strips to fetch: the plan's survivor strips plus any strip
		// holding a wanted, still-live sector.
		clear(h.need)
		for _, d := range plan.ReadDisks() {
			h.need[d] = true
		}
		for _, w := range wanted {
			if !h.faulty[w] {
				h.need[w%n] = true
			}
		}

		widened := false
		for j := 0; j < n; j++ {
			if !h.need[j] || h.read[j] {
				continue
			}
			if err := h.readStrip(ctx, idx, j, st); err != nil {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return ctxErr
				}
				h.demoteStrip(idx, j, st, err)
				widened = true
				continue
			}
			h.read[j] = true
			h.Stats.StripsRead++
			if sums != nil {
				for i := 0; i < st.R(); i++ {
					if h.verifySector(idx, i*n+j, st, sums) {
						widened = true
					}
				}
			}
		}
		if widened {
			// New damage invalidated the plan: replan over the wider
			// erasure set (already-read strips are not re-fetched).
			continue
		}
		if err := plan.Execute(st, nil); err != nil {
			return fmt.Errorf("fault: stripe %d: repair execute: %w", idx, err)
		}
		if demoted := len(h.list) - h.nBase; demoted > 0 {
			h.Stats.Healed++
			h.logf("stripe %d: healed %d demoted sector(s) via repair plan (%d survivors)",
				idx, demoted, len(plan.ReadCols))
		}
		return nil
	}
}
