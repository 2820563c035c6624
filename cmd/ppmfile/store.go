package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"ppm/internal/codes"
	"ppm/internal/fault"
	"ppm/internal/gf"
	"ppm/internal/stripe"
)

// checksumAlgo is the only checksum algorithm ppmfile writes; the
// manifest field exists so a future algorithm can be versioned in.
const checksumAlgo = "crc32c"

// manifest describes an encoded shard directory.
type manifest struct {
	N          int      `json:"n"`
	R          int      `json:"r"`
	M          int      `json:"m"`
	S          int      `json:"s"`
	Word       int      `json:"word"`
	Coeffs     []uint32 `json:"coeffs"`
	SectorSize int      `json:"sector_size"`
	Stripes    int      `json:"stripes"`
	FileSize   int64    `json:"file_size"`
	FileName   string   `json:"file_name"`
	// ChecksumAlgo names the per-sector checksum algorithm ("crc32c");
	// empty on pre-checksum archives, which decode and scrub still
	// accept (they just cannot detect silent corruption by checksum).
	ChecksumAlgo string `json:"checksum_algo,omitempty"`
	// Checksums[idx] holds stripe idx's per-sector checksums in global
	// (row-major) sector order — the reference for degraded reads and
	// the self-healing scrub.
	Checksums [][]uint32 `json:"checksums,omitempty"`
}

const manifestName = "manifest.json"

func diskFileName(j int) string { return fmt.Sprintf("disk_%02d.strip", j) }

func writeManifest(dir string, mf manifest) error {
	data, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, manifestName), append(data, '\n'), 0o644)
}

func readManifest(dir string) (manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return manifest{}, fmt.Errorf("reading manifest: %w", err)
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return manifest{}, fmt.Errorf("parsing manifest: %w", err)
	}
	if mf.N < 2 || mf.R < 1 || mf.SectorSize < 4 || mf.Stripes < 1 || mf.FileSize < 0 {
		return manifest{}, fmt.Errorf("manifest is inconsistent: %+v", mf)
	}
	if mf.M < 0 || mf.S < 0 {
		return manifest{}, fmt.Errorf("manifest is inconsistent: m=%d s=%d", mf.M, mf.S)
	}
	// Every strip file holds stripes × r × sector_size bytes; a product
	// that overflows describes no archive.
	if mf.SectorSize > math.MaxInt/mf.R || mf.Stripes > math.MaxInt/(mf.R*mf.SectorSize) {
		return manifest{}, fmt.Errorf("manifest is inconsistent: r=%d × sector_size=%d × stripes=%d overflows",
			mf.R, mf.SectorSize, mf.Stripes)
	}
	if _, err := gf.ForWord(mf.Word); err != nil {
		return manifest{}, fmt.Errorf("manifest names an unsupported field: %w", err)
	}
	if len(mf.Coeffs) != mf.M+mf.S {
		return manifest{}, fmt.Errorf("manifest has %d coding coefficients, want m+s = %d",
			len(mf.Coeffs), mf.M+mf.S)
	}
	if mf.ChecksumAlgo != "" && mf.ChecksumAlgo != checksumAlgo {
		return manifest{}, fmt.Errorf("manifest uses unsupported checksum algorithm %q", mf.ChecksumAlgo)
	}
	if len(mf.Checksums) > 0 {
		if len(mf.Checksums) != mf.Stripes {
			return manifest{}, fmt.Errorf("manifest has checksum rows for %d stripes, want %d",
				len(mf.Checksums), mf.Stripes)
		}
		for idx, row := range mf.Checksums {
			if len(row) != mf.N*mf.R {
				return manifest{}, fmt.Errorf("stripe %d checksum row has %d entries, want n*r = %d",
					idx, len(row), mf.N*mf.R)
			}
		}
	}
	return mf, nil
}

// codeFromManifest rebuilds the exact SD instance used at encode time
// (same field and coefficients, so parity bytes match).
func codeFromManifest(mf manifest) (*codes.SD, error) {
	f, err := gf.ForWord(mf.Word)
	if err != nil {
		return nil, err
	}
	return codes.NewSDWithCoefficients(mf.N, mf.R, mf.M, mf.S, f, mf.Coeffs)
}

// diskStore reads and writes the per-disk strip files for one stripe at
// a time. Strip file layout: stripe 0's r sectors, then stripe 1's, ...
type diskStore struct {
	dir string
	mf  manifest
	fh  []*os.File // index by disk; nil when missing/unreadable
	buf []byte     // one strip of scratch, reused across stripes
}

// errManifestExceedsStrips rejects a manifest that claims more disks
// or more bytes per strip file than the strip files present hold.
var errManifestExceedsStrips = errors.New("claims more than its strip files hold")

// openStore opens every strip file and allocates the store's single
// strip-sized scratch buffer. readStripe and writeStripe share it, so a
// store must not serve reads and writes from different goroutines at
// once — the ppmfile commands either only read (decode fill stage,
// verify, scrub) or only write (encode drain stage) through it.
//
// In read mode the manifest is checked against the strip files before
// anything is sized from it: at most m+s of the n strip files may be
// missing, counted with one directory read before the per-disk table
// is allocated, and stripes × r × sector_size must fit in the largest
// strip file present. So n is bounded by the manifest's own coefficient
// list and r by real bytes. A truncated or missing strip within those
// bounds is left to the repair paths.
func openStore(dir string, mf manifest, write bool) (*diskStore, error) {
	mfPath := filepath.Join(dir, manifestName)
	if !write {
		present, err := countStrips(dir, mf.N)
		if err != nil {
			return nil, err
		}
		if present < mf.N-(mf.M+mf.S) {
			return nil, fmt.Errorf("%s %w: n=%d disks, %d strip files present, at most m+s = %d may be missing",
				mfPath, errManifestExceedsStrips, mf.N, present, mf.M+mf.S)
		}
	}
	ds := &diskStore{
		dir: dir, mf: mf,
		fh: make([]*os.File, mf.N),
	}
	largest := int64(0)
	for j := 0; j < mf.N; j++ {
		path := filepath.Join(dir, diskFileName(j))
		var f *os.File
		var err error
		if write {
			f, err = os.Create(path)
		} else {
			f, err = os.Open(path)
		}
		if err != nil {
			if write {
				ds.Close()
				return nil, err
			}
			continue // missing disk: recoverable at decode time
		}
		ds.fh[j] = f
		if !write {
			fi, err := f.Stat()
			if err != nil {
				ds.Close()
				return nil, err
			}
			largest = max(largest, fi.Size())
		}
	}
	if claim := int64(mf.Stripes) * int64(ds.stripBytes()); !write && claim > largest {
		ds.Close()
		return nil, fmt.Errorf("%s %w: %d stripes × r=%d × sector_size=%d = %d bytes per strip file, largest present %d",
			mfPath, errManifestExceedsStrips, mf.Stripes, mf.R, mf.SectorSize, claim, largest)
	}
	ds.buf = make([]byte, ds.stripBytes())
	return ds, nil
}

// countStrips counts the strip files of disks 0..n-1 in dir.
func countStrips(dir string, n int) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	count := 0
	for _, e := range entries {
		var j int
		if _, err := fmt.Sscanf(e.Name(), "disk_%d.strip", &j); err == nil &&
			j >= 0 && j < n && e.Name() == diskFileName(j) {
			count++
		}
	}
	return count, nil
}

// missingDisks lists disks whose strip file could not be opened.
func (ds *diskStore) missingDisks() []int {
	var missing []int
	for j, f := range ds.fh {
		if f == nil {
			missing = append(missing, j)
		}
	}
	return missing
}

// StripError wraps a strip-level I/O failure with the disk and stripe
// it hit, plus the operation — the context the retry layer and the
// degraded-read log classify and report on. Its Transient method
// forwards the wrapped error's classification (fault.IsTransient), so
// an injected transient read error stays retryable through the wrap
// while a missing disk stays permanent.
type StripError struct {
	Disk   int
	Stripe int
	Op     string // "read" or "write"
	Err    error
}

func (e *StripError) Error() string {
	return fmt.Sprintf("disk %d stripe %d: %s: %v", e.Disk, e.Stripe, e.Op, e.Err)
}

func (e *StripError) Unwrap() error { return e.Err }

// Transient reports whether the underlying failure is worth retrying.
func (e *StripError) Transient() bool { return fault.IsTransient(e.Err) }

// errDiskMissing is the permanent failure a read against an unopened
// disk surfaces: retrying cannot help, only erasure demotion can.
var errDiskMissing = fmt.Errorf("disk missing")

// stripBytes is the per-stripe byte count of one disk's strip.
func (ds *diskStore) stripBytes() int { return ds.mf.R * ds.mf.SectorSize }

// Disks, StripBytes, ReadStrip and WriteStrip implement fault.Store, so
// a diskStore plugs straight into the fault layer: fault.NewFaultyStore
// wraps it for injection and fault.Healer degraded-reads through it.

// Disks returns the disk (strip-per-stripe) count.
func (ds *diskStore) Disks() int { return ds.mf.N }

// StripBytes returns the per-stripe strip size in bytes.
func (ds *diskStore) StripBytes() int { return ds.stripBytes() }

// ReadStrip reads stripe idx's strip on one disk into dst.
func (ds *diskStore) ReadStrip(idx, disk int, dst []byte) error {
	if disk < 0 || disk >= len(ds.fh) {
		return &StripError{Disk: disk, Stripe: idx, Op: "read", Err: fmt.Errorf("disk out of range")}
	}
	f := ds.fh[disk]
	if f == nil {
		return &StripError{Disk: disk, Stripe: idx, Op: "read", Err: errDiskMissing}
	}
	if _, err := f.ReadAt(dst[:ds.stripBytes()], int64(idx)*int64(ds.stripBytes())); err != nil {
		return &StripError{Disk: disk, Stripe: idx, Op: "read", Err: err}
	}
	return nil
}

// WriteStrip writes stripe idx's strip on one disk from src.
func (ds *diskStore) WriteStrip(idx, disk int, src []byte) error {
	if disk < 0 || disk >= len(ds.fh) {
		return &StripError{Disk: disk, Stripe: idx, Op: "write", Err: fmt.Errorf("disk out of range")}
	}
	f := ds.fh[disk]
	if f == nil {
		return &StripError{Disk: disk, Stripe: idx, Op: "write", Err: errDiskMissing}
	}
	if _, err := f.WriteAt(src[:ds.stripBytes()], int64(idx)*int64(ds.stripBytes())); err != nil {
		return &StripError{Disk: disk, Stripe: idx, Op: "write", Err: err}
	}
	return nil
}

// readStripe loads stripe number idx into st; missing disks' sectors
// are left zeroed.
func (ds *diskStore) readStripe(idx int, st *stripe.Stripe) error {
	for j, f := range ds.fh {
		if f == nil {
			continue
		}
		if err := ds.ReadStrip(idx, j, ds.buf); err != nil {
			return err
		}
		for i := 0; i < ds.mf.R; i++ {
			copy(st.SectorAt(i, j), ds.buf[i*ds.mf.SectorSize:(i+1)*ds.mf.SectorSize])
		}
	}
	return nil
}

// writeStripe writes stripe idx from st to every open strip file.
func (ds *diskStore) writeStripe(idx int, st *stripe.Stripe) error {
	for j, f := range ds.fh {
		if f == nil {
			continue
		}
		for i := 0; i < ds.mf.R; i++ {
			copy(ds.buf[i*ds.mf.SectorSize:(i+1)*ds.mf.SectorSize], st.SectorAt(i, j))
		}
		if err := ds.WriteStrip(idx, j, ds.buf); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every open strip file and returns their close errors
// joined: a strip written through a handle that fails to close may not
// hold what was written. Closed handles are dropped, so a second Close
// (the deferred one on a path that already closed) is a no-op.
func (ds *diskStore) Close() error {
	var errs []error
	for j, f := range ds.fh {
		if f != nil {
			errs = append(errs, f.Close())
			ds.fh[j] = nil
		}
	}
	return errors.Join(errs...)
}
