package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"os"
	"path/filepath"

	"ppm/internal/codes"
	"ppm/internal/fault"
	"ppm/internal/gf"
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

// manifestTemp is where writeManifest stages a manifest before the
// rename commits it.
const manifestTemp = manifestName + ".tmp"

// writeManifest commits mf as dir's manifest atomically: it writes and
// fsyncs a temp file in dir, renames it over manifest.json, then fsyncs
// dir so the rename itself is durable. A crash at any point leaves
// either the previous manifest or the new one, never a torn file.
func writeManifest(dir string, mf manifest) error {
	data, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestTemp)
	if err := writeSynced(tmp, append(data, '\n')); err != nil {
		return fmt.Errorf("writing manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("committing manifest: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("committing manifest: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("committing manifest: %w", err)
	}
	return nil
}

// writeSynced writes data to path and fsyncs it before closing. A file
// it created but could not complete is removed.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
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
	// decode without -out creates the file the manifest names, so the
	// name may not reach outside the working directory.
	mfPath := filepath.Join(dir, manifestName)
	if mf.FileName != "" && (mf.FileName != filepath.Base(mf.FileName) || mf.FileName == "." || !filepath.IsLocal(mf.FileName)) {
		return manifest{}, fmt.Errorf("%s: file_name %q is not a plain file name", mfPath, mf.FileName)
	}
	// The payload must fit in the archive's data sectors: decode would
	// otherwise write every stripe before finding the archive short.
	if capacity := dataCapacity(mf); big.NewInt(mf.FileSize).Cmp(capacity) > 0 {
		return manifest{}, fmt.Errorf("%s %w: file_size %d bytes, %v data bytes in %d stripes",
			mfPath, errManifestExceedsStrips, mf.FileSize, capacity, mf.Stripes)
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

// dataCapacity is the payload bytes an archive of mf's geometry holds:
// stripes × ((n−m)·r − s) data sectors × sector_size. It is exact for
// any n; readManifest has bounded sector_size × stripes.
func dataCapacity(mf manifest) *big.Int {
	sectors := new(big.Int).Mul(big.NewInt(int64(mf.N-mf.M)), big.NewInt(int64(mf.R)))
	sectors.Sub(sectors, big.NewInt(int64(mf.S)))
	return sectors.Mul(sectors, big.NewInt(int64(mf.SectorSize)*int64(mf.Stripes)))
}

// codeFromManifest rebuilds the exact SD instance used at encode time
// (same field and coefficients, so parity bytes match). A geometry the
// code constructor rejects, an oversized parity-check matrix among
// them, is the manifest's fault and says so.
func codeFromManifest(mf manifest) (*codes.SD, error) {
	f, err := gf.ForWord(mf.Word)
	if err != nil {
		return nil, err
	}
	sd, err := codes.NewSDWithCoefficients(mf.N, mf.R, mf.M, mf.S, f, mf.Coeffs)
	if err != nil {
		return nil, fmt.Errorf("%s describes no usable code: %w", manifestName, err)
	}
	return sd, nil
}

// diskStore is the one owner of a command's strip files: it alone
// opens, creates, reads, writes and closes them, and every command
// reads and writes strips through it as a fault.Store. Strip file
// layout: stripe 0's strip, then stripe 1's, ... (fault.GatherStrip).
// Reads and writes use separate handles, so decode's fill goroutine
// (reads) and drain goroutine (rebuilt strips) share nothing mutable,
// and a disk missing at open stays missing for reads all command long.
type diskStore struct {
	dir    string
	mf     manifest
	rd, wr []*os.File // by disk; rd nil when missing at open, wr until the first write
}

// errManifestExceedsStrips rejects a manifest that claims more disks
// or more bytes per strip file than the strip files present hold.
var errManifestExceedsStrips = errors.New("claims more than its strip files hold")

// openStore creates every strip file for writing (encode), or opens
// the ones present for reading.
//
// In read mode the manifest is checked against the strip files before
// anything is sized from it: at most m+s of the n strip files may be
// missing, counted with one directory read before the per-disk table
// is allocated, and stripes × r × sector_size must fit in the largest
// strip file present. So n is bounded by the manifest's own coefficient
// list and r by real bytes. A truncated or missing strip within those
// bounds is left to the repair paths.
func openStore(dir string, mf manifest, create bool) (*diskStore, error) {
	mfPath := filepath.Join(dir, manifestName)
	if !create {
		present, err := countStrips(dir, mf.N)
		if err != nil {
			return nil, err
		}
		if present < mf.N-(mf.M+mf.S) {
			return nil, fmt.Errorf("%s %w: n=%d disks, %d strip files present, at most m+s = %d may be missing",
				mfPath, errManifestExceedsStrips, mf.N, present, mf.M+mf.S)
		}
	}
	ds := &diskStore{dir: dir, mf: mf, rd: make([]*os.File, mf.N), wr: make([]*os.File, mf.N)}
	largest := int64(0)
	for j := 0; j < mf.N; j++ {
		path := filepath.Join(dir, diskFileName(j))
		if create {
			f, err := os.Create(path)
			if err != nil {
				ds.Close()
				return nil, err
			}
			ds.wr[j] = f
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			continue // missing disk: recoverable at decode time
		}
		ds.rd[j] = f
		fi, err := f.Stat()
		if err != nil {
			ds.Close()
			return nil, err
		}
		largest = max(largest, fi.Size())
	}
	if claim := int64(mf.Stripes) * int64(ds.StripBytes()); !create && claim > largest {
		ds.Close()
		return nil, fmt.Errorf("%s %w: %d stripes × r=%d × sector_size=%d = %d bytes per strip file, largest present %d",
			mfPath, errManifestExceedsStrips, mf.Stripes, mf.R, mf.SectorSize, claim, largest)
	}
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
	for j, f := range ds.rd {
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

// errDiskMissing is the permanent failure a read against a disk missing
// at open surfaces: retrying cannot help, only erasure demotion can.
var errDiskMissing = fmt.Errorf("disk missing")

// Disks, StripBytes, ReadStrip and WriteStrip implement fault.Store, so
// a diskStore plugs straight into the fault layer: fault.NewFaultyStore
// wraps it for injection and fault.Healer degraded-reads through it.

// Disks returns the disk (strip-per-stripe) count.
func (ds *diskStore) Disks() int { return ds.mf.N }

// StripBytes returns the per-stripe strip size in bytes.
func (ds *diskStore) StripBytes() int { return ds.mf.R * ds.mf.SectorSize }

// ReadStrip reads stripe idx's strip on one disk into dst.
func (ds *diskStore) ReadStrip(idx, disk int, dst []byte) error {
	if disk < 0 || disk >= len(ds.rd) {
		return &StripError{Disk: disk, Stripe: idx, Op: "read", Err: fmt.Errorf("disk out of range")}
	}
	f := ds.rd[disk]
	if f == nil {
		return &StripError{Disk: disk, Stripe: idx, Op: "read", Err: errDiskMissing}
	}
	if _, err := f.ReadAt(dst[:ds.StripBytes()], int64(idx)*int64(ds.StripBytes())); err != nil {
		return &StripError{Disk: disk, Stripe: idx, Op: "read", Err: err}
	}
	return nil
}

// WriteStrip writes stripe idx's strip on one disk from src. A disk's
// file is opened for writing on its first write, and created if the
// disk was missing; encode's store created them all.
func (ds *diskStore) WriteStrip(idx, disk int, src []byte) error {
	if disk < 0 || disk >= len(ds.wr) {
		return &StripError{Disk: disk, Stripe: idx, Op: "write", Err: fmt.Errorf("disk out of range")}
	}
	var err error
	if ds.wr[disk] == nil {
		ds.wr[disk], err = os.OpenFile(filepath.Join(ds.dir, diskFileName(disk)), os.O_WRONLY|os.O_CREATE, 0o644)
	}
	if err == nil {
		_, err = ds.wr[disk].WriteAt(src[:ds.StripBytes()], int64(idx)*int64(ds.StripBytes()))
	}
	if err != nil {
		return &StripError{Disk: disk, Stripe: idx, Op: "write", Err: err}
	}
	return nil
}

// Close closes every open strip file and returns their close errors
// joined: a strip written through a handle that fails to close may not
// hold what was written. Closed handles are dropped, so a second Close
// (the deferred one on a path that already closed) is a no-op.
func (ds *diskStore) Close() error {
	var errs []error
	for _, fh := range [][]*os.File{ds.rd, ds.wr} {
		for j, f := range fh {
			if f != nil {
				errs = append(errs, f.Close())
				fh[j] = nil
			}
		}
	}
	return errors.Join(errs...)
}
