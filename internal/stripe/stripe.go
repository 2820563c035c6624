// Package stripe provides the data substrate: one stripe of n strips by
// r rows of fixed-size sectors, with helpers for filling, corrupting and
// comparing sector contents. The decoders operate on these buffers via
// the gf region primitives; the layout convention matches the paper —
// sector index i*n + j is stripe row i, disk j.
package stripe

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"ppm/internal/codes"
)

// Stripe is one stripe's worth of sector buffers.
type Stripe struct {
	n, r       int
	sectorSize int
	sectors    [][]byte
}

// New allocates a stripe of n strips by r rows with the given sector
// size in bytes. The sector size must be a positive multiple of 4 so
// that regions are word-aligned for every supported field, and the
// stripe's n·r·sectorSize bytes must fit in an int.
func New(n, r, sectorSize int) (*Stripe, error) {
	if err := checkGeometry(n, r, sectorSize); err != nil {
		return nil, err
	}
	// One backing allocation, sliced per sector (HPC-friendly layout).
	backing := make([]byte, n*r*sectorSize)
	sectors := make([][]byte, n*r)
	for i := range sectors {
		sectors[i] = backing[i*sectorSize : (i+1)*sectorSize : (i+1)*sectorSize]
	}
	return &Stripe{n: n, r: r, sectorSize: sectorSize, sectors: sectors}, nil
}

func checkGeometry(n, r, sectorSize int) error {
	if n < 1 || r < 1 {
		return fmt.Errorf("stripe: invalid geometry n=%d r=%d", n, r)
	}
	if sectorSize < 4 || sectorSize%4 != 0 {
		return fmt.Errorf("stripe: sector size %d must be a positive multiple of 4", sectorSize)
	}
	if n > math.MaxInt/r || n*r > math.MaxInt/sectorSize {
		return fmt.Errorf("stripe: %d×%d sectors of %d bytes overflow int", n, r, sectorSize)
	}
	return nil
}

// View is a stripe over memory it does not own, re-pointed sector by
// sector, so one view serves stripe after stripe.
type View struct {
	st *Stripe
}

// NewView returns a view of n strips by r rows whose sector i is
// sectors[i], aliased, not copied. Every sector must be exactly
// sectorSize bytes; the geometry rules are New's.
func NewView(n, r, sectorSize int, sectors [][]byte) (*View, error) {
	if err := checkGeometry(n, r, sectorSize); err != nil {
		return nil, err
	}
	if len(sectors) != n*r {
		return nil, fmt.Errorf("stripe: view of %d×%d sectors given %d", n, r, len(sectors))
	}
	st := &Stripe{n: n, r: r, sectorSize: sectorSize, sectors: make([][]byte, n*r)}
	for i, sec := range sectors {
		if len(sec) != sectorSize {
			return nil, fmt.Errorf("stripe: view sector %d is %d bytes, want %d", i, len(sec), sectorSize)
		}
		st.sectors[i] = sec[:sectorSize:sectorSize]
	}
	return &View{st: st}, nil
}

// Alias points sector idx of the view at b, aliased, not copied. b must
// be exactly the sector size: Alias panics otherwise, as on a bad
// index, since only a bug can produce either.
func (v *View) Alias(idx int, b []byte) {
	if len(b) != v.st.sectorSize {
		panic(fmt.Sprintf("stripe: aliasing a %d-byte sector with %d bytes", v.st.sectorSize, len(b)))
	}
	v.st.sectors[idx] = b[:len(b):len(b)]
}

// Stripe returns the stripe the view presents: reading or writing it
// reads or writes the memory its sectors alias.
func (v *View) Stripe() *Stripe { return v.st }

// ForCode allocates a stripe matching a code's geometry whose total size
// is as close to stripeBytes as alignment allows. This mirrors the
// paper's experiments, which are parameterised by total stripe size
// (e.g. 32 MB across n*r sectors).
func ForCode(c codes.Code, stripeBytes int) (*Stripe, error) {
	total := codes.TotalSectors(c)
	if total == 0 {
		return nil, fmt.Errorf("stripe: code %s has no sectors", c.Name())
	}
	sector := stripeBytes / total
	sector -= sector % 4
	if sector < 4 {
		sector = 4
	}
	return New(c.NumStrips(), c.NumRows(), sector)
}

// N returns the number of strips (disks).
func (st *Stripe) N() int { return st.n }

// R returns the number of rows per strip.
func (st *Stripe) R() int { return st.r }

// SectorSize returns the sector size in bytes.
func (st *Stripe) SectorSize() int { return st.sectorSize }

// TotalSectors returns n*r.
func (st *Stripe) TotalSectors() int { return st.n * st.r }

// TotalBytes returns the stripe's payload size.
func (st *Stripe) TotalBytes() int { return st.n * st.r * st.sectorSize }

// Sector returns the buffer for global sector index idx (row-major).
// The returned slice aliases the stripe; writes modify the stripe.
func (st *Stripe) Sector(idx int) []byte {
	if idx < 0 || idx >= len(st.sectors) {
		panic(fmt.Sprintf("stripe: sector %d out of range [0,%d)", idx, len(st.sectors)))
	}
	return st.sectors[idx]
}

// SectorAt returns the buffer at stripe row i, disk j.
func (st *Stripe) SectorAt(row, disk int) []byte {
	if row < 0 || row >= st.r || disk < 0 || disk >= st.n {
		panic(fmt.Sprintf("stripe: sector (%d,%d) out of range %dx%d", row, disk, st.r, st.n))
	}
	return st.sectors[row*st.n+disk]
}

// Sectors returns views of the requested global indices, in order.
func (st *Stripe) Sectors(idx []int) [][]byte {
	out := make([][]byte, len(idx))
	for i, j := range idx {
		out[i] = st.Sector(j)
	}
	return out
}

// FillRandom fills every sector with deterministic pseudo-random bytes.
func (st *Stripe) FillRandom(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, sec := range st.sectors {
		rng.Read(sec)
	}
}

// FillDataRandom fills only the given (data) positions, zeroing the
// rest; use before encoding so parity starts cleared.
func (st *Stripe) FillDataRandom(seed int64, dataPositions []int) {
	rng := rand.New(rand.NewSource(seed))
	for i := range st.sectors {
		for j := range st.sectors[i] {
			st.sectors[i][j] = 0
		}
	}
	for _, idx := range dataPositions {
		rng.Read(st.Sector(idx))
	}
}

// Clone returns a deep copy of the stripe.
func (st *Stripe) Clone() *Stripe {
	c, err := New(st.n, st.r, st.sectorSize)
	if err != nil {
		panic(err) // geometry already validated
	}
	for i := range st.sectors {
		copy(c.sectors[i], st.sectors[i])
	}
	return c
}

// Equal reports whether two stripes have identical geometry and content.
func (st *Stripe) Equal(o *Stripe) bool {
	if st.n != o.n || st.r != o.r || st.sectorSize != o.sectorSize {
		return false
	}
	for i := range st.sectors {
		if !bytes.Equal(st.sectors[i], o.sectors[i]) {
			return false
		}
	}
	return true
}

// Erase simulates losing the given sectors: their contents are zeroed,
// the way a decoder's scratch view of unreadable sectors starts out.
func (st *Stripe) Erase(positions []int) {
	for _, idx := range positions {
		sec := st.Sector(idx)
		for i := range sec {
			sec[i] = 0
		}
	}
}

// Scribble overwrites the given sectors with garbage derived from the
// seed — stronger than Erase for round-trip tests, since a decoder that
// "recovers" by leaving buffers alone will be caught. Every scribbled
// sector is guaranteed to differ from its previous contents: if the rng
// happens to reproduce a sector byte for byte (certain for sectors that
// already held that stream, possible for any), its first byte is
// flipped, so "corrupt then recover" tests can never pass vacuously.
func (st *Stripe) Scribble(seed int64, positions []int) {
	rng := rand.New(rand.NewSource(seed))
	prev := make([]byte, st.sectorSize)
	for _, idx := range positions {
		sec := st.Sector(idx)
		copy(prev, sec)
		rng.Read(sec)
		if bytes.Equal(sec, prev) {
			sec[0] ^= 0xFF
		}
	}
}

// FlipBit flips one chosen bit of one sector — the minimal guaranteed
// silent corruption, for checksum and scrub tests that need damage
// smaller and more targeted than Scribble's whole-sector garbage.
func (st *Stripe) FlipBit(position, byteOff, bit int) {
	st.Sector(position)[byteOff] ^= 1 << (bit & 7)
}
