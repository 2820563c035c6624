package fault

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ppm/internal/stripe"
)

// Store is the strip-granular storage seam the fault layer wraps and
// the healer reads through: stripe idx's strip on disk j is the
// contiguous r*sectorSize bytes holding that disk's sectors for that
// stripe. cmd/ppmfile's diskStore implements it over per-disk files;
// MemStore implements it in memory for tests and the chaos harness.
type Store interface {
	// Disks returns the number of strips per stripe (the code's n).
	Disks() int
	// StripBytes returns the strip size in bytes (r * sectorSize).
	StripBytes() int
	// ReadStrip fills dst (len StripBytes) with stripe idx's strip on
	// disk j.
	ReadStrip(idx, disk int, dst []byte) error
	// WriteStrip persists stripe idx's strip on disk j from src.
	WriteStrip(idx, disk int, src []byte) error
}

// MemStore is an in-memory Store: one growable byte slab per disk,
// whose length is the written extent. A nil disk slab simulates a
// missing disk (reads fail permanently).
type MemStore struct {
	stripBytes int
	disks      [][]byte
}

// NewMemStore builds an empty in-memory store.
func NewMemStore(disks, stripBytes int) *MemStore {
	return &MemStore{stripBytes: stripBytes, disks: make([][]byte, disks)}
}

// Disks returns the disk count.
func (m *MemStore) Disks() int { return len(m.disks) }

// StripBytes returns the per-stripe strip size.
func (m *MemStore) StripBytes() int { return m.stripBytes }

// Lose drops disk j's data: subsequent reads fail permanently, the way
// an unplugged device does.
func (m *MemStore) Lose(disk int) { m.disks[disk] = nil }

// ReadStrip copies stripe idx's strip on disk j into dst.
func (m *MemStore) ReadStrip(idx, disk int, dst []byte) error {
	if disk < 0 || disk >= len(m.disks) {
		return fmt.Errorf("memstore: disk %d out of range", disk)
	}
	d := m.disks[disk]
	off := idx * m.stripBytes
	if d == nil || off+m.stripBytes > len(d) {
		return fmt.Errorf("memstore: disk %d stripe %d missing", disk, idx)
	}
	copy(dst, d[off:off+m.stripBytes])
	return nil
}

// WriteStrip stores stripe idx's strip on disk j, extending the slab
// to cover it. Capacity grows geometrically, so filling a store in
// ascending stripe order copies each byte O(1) times on average; the
// bytes between the old extent and a strip written past it read as
// zeros, as before.
func (m *MemStore) WriteStrip(idx, disk int, src []byte) error {
	if disk < 0 || disk >= len(m.disks) {
		return fmt.Errorf("memstore: disk %d out of range", disk)
	}
	if len(src) != m.stripBytes {
		return fmt.Errorf("memstore: strip is %d bytes, want %d", len(src), m.stripBytes)
	}
	off := idx * m.stripBytes
	d := m.disks[disk]
	if need := off + m.stripBytes; need > len(d) {
		if need > cap(d) {
			grown := make([]byte, need, max(need, 2*cap(d)))
			copy(grown, d)
			d = grown
		}
		d = d[:need]
		m.disks[disk] = d
	}
	copy(d[off:], src)
	return nil
}

// FaultyStore wraps a Store with a fault schedule: scheduled events
// fire as their (stripe, disk) strip is read or written. Read errors
// surface as transient *InjectedError; latency and hangs delay the op;
// bit flips corrupt the returned bytes silently; torn writes persist a
// prefix of the strip plus garbage and report success — the write
// *looks* clean and only a checksummed read or scrub catches it.
//
// A FaultyStore is not safe for concurrent use (the schedule counts
// firings); give each goroutine its own Clone of the schedule.
type FaultyStore struct {
	inner Store
	sched *Schedule
	mu    sync.Mutex // guards rng: abandoned hung ops overlap live ones
	rng   *rand.Rand
	// Release, when non-nil, unblocks in-flight Hang events early —
	// tests use it to avoid waiting out hour-long hangs after the op
	// has already been abandoned by its deadline.
	Release chan struct{}
}

// NewFaultyStore wraps inner with the schedule's faults.
func NewFaultyStore(inner Store, sched *Schedule) *FaultyStore {
	return &FaultyStore{inner: inner, sched: sched, rng: rand.New(rand.NewSource(sched.seed ^ 0x5deece66d))}
}

// Disks returns the wrapped store's disk count.
func (fs *FaultyStore) Disks() int { return fs.inner.Disks() }

// StripBytes returns the wrapped store's strip size.
func (fs *FaultyStore) StripBytes() int { return fs.inner.StripBytes() }

// Schedule returns the live schedule (for Fired counts in reports).
func (fs *FaultyStore) Schedule() *Schedule { return fs.sched }

// delay sleeps for d, or until Release is closed or signalled — how
// tests cut hour-long hangs short once the op has been abandoned.
func (fs *FaultyStore) delay(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-fs.Release: // a nil Release never fires
	}
}

// ReadStrip reads through the wrapped store, firing scheduled read
// faults.
func (fs *FaultyStore) ReadStrip(idx, disk int, dst []byte) error {
	if ev := fs.sched.take(idx, disk, Latency, Hang); ev != nil {
		fs.delay(ev.Delay)
	}
	if ev := fs.sched.take(idx, disk, ReadError); ev != nil {
		return &InjectedError{Event: *ev}
	}
	if err := fs.inner.ReadStrip(idx, disk, dst); err != nil {
		return err
	}
	if ev := fs.sched.take(idx, disk, BitFlip); ev != nil {
		fs.mu.Lock()
		FlipByte(dst, fs.rng)
		fs.mu.Unlock()
	}
	return nil
}

// WriteStrip writes through the wrapped store, firing scheduled write
// faults.
func (fs *FaultyStore) WriteStrip(idx, disk int, src []byte) error {
	if ev := fs.sched.take(idx, disk, Latency, Hang); ev != nil {
		fs.delay(ev.Delay)
	}
	if ev := fs.sched.take(idx, disk, WriteError); ev != nil {
		return &InjectedError{Event: *ev}
	}
	if ev := fs.sched.take(idx, disk, TornWrite); ev != nil {
		// Persist a torn image: intact prefix, garbage tail. The
		// caller's buffer stays untouched and the op reports success —
		// silent on-disk damage for the scrub to find.
		torn := make([]byte, len(src))
		copy(torn, src)
		tail := torn[len(torn)/2:]
		fs.mu.Lock()
		fs.rng.Read(tail)
		fs.mu.Unlock()
		if len(tail) > 0 && bytes.Equal(tail, src[len(torn)/2:]) {
			tail[0] ^= 0xFF // the rng must not reproduce the original tail
		}
		return fs.inner.WriteStrip(idx, disk, torn)
	}
	return fs.inner.WriteStrip(idx, disk, src)
}

// StoreStripe writes every strip of stripe idx from st into s — the
// plain (non-pipelined) encode-side helper tests and the chaos harness
// use to populate a store.
func StoreStripe(s Store, idx int, st *stripe.Stripe) error {
	buf := make([]byte, s.StripBytes())
	sector := st.SectorSize()
	for j := 0; j < st.N(); j++ {
		for i := 0; i < st.R(); i++ {
			copy(buf[i*sector:(i+1)*sector], st.SectorAt(i, j))
		}
		if err := s.WriteStrip(idx, j, buf); err != nil {
			return err
		}
	}
	return nil
}

// LoadStripe reads every strip of stripe idx into st, with no retries
// and no checksum verification — the raw counterpart of
// Healer.ReadStripe.
func LoadStripe(s Store, idx int, st *stripe.Stripe) error {
	buf := make([]byte, s.StripBytes())
	sector := st.SectorSize()
	for j := 0; j < st.N(); j++ {
		if err := s.ReadStrip(idx, j, buf); err != nil {
			return err
		}
		for i := 0; i < st.R(); i++ {
			copy(st.SectorAt(i, j), buf[i*sector:(i+1)*sector])
		}
	}
	return nil
}

// FlipByte XORs one random byte of b with a random nonzero mask — a
// guaranteed-visible single-sector corruption.
func FlipByte(b []byte, rng *rand.Rand) {
	if len(b) == 0 {
		return
	}
	mask := byte(1 + rng.Intn(255))
	b[rng.Intn(len(b))] ^= mask
}
