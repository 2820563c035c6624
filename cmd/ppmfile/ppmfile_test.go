package main

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeInput(t *testing.T, dir string, size int) (string, []byte) {
	t.Helper()
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	path := filepath.Join(dir, "input.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mf := manifest{
		N: 8, R: 16, M: 2, S: 2, Word: 8,
		Coeffs:     []uint32{1, 2, 4, 8},
		SectorSize: 4096, Stripes: 3, FileSize: 12345, FileName: "x.bin",
	}
	if err := writeManifest(dir, mf); err != nil {
		t.Fatal(err)
	}
	got, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != mf.N || got.FileSize != mf.FileSize || len(got.Coeffs) != 4 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := codeFromManifest(got); err != nil {
		t.Fatal(err)
	}
}

func TestReadManifestRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if _, err := readManifest(dir); err == nil {
		t.Error("missing manifest accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readManifest(dir); err == nil {
		t.Error("corrupt manifest accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"n":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readManifest(dir); err == nil {
		t.Error("inconsistent manifest accepted")
	}
}

// TestEncodeDecodeRoundTrip: encode a file, delete m disks, decode, and
// compare byte-for-byte; then verify the repaired directory.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	work := t.TempDir()
	in, data := writeInput(t, work, 300_000)
	shards := filepath.Join(work, "shards")
	out := filepath.Join(work, "restored.bin")

	if err := runEncode([]string{"-in", in, "-dir", shards, "-n", "6", "-r", "8", "-m", "2", "-s", "1", "-sector", "1024"}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	for _, j := range []int{1, 4} {
		if err := os.Remove(filepath.Join(shards, diskFileName(j))); err != nil {
			t.Fatal(err)
		}
	}
	if err := runDecode([]string{"-dir", shards, "-out", out}); err != nil {
		t.Fatalf("decode: %v", err)
	}
	restored, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored, data) {
		t.Fatal("restored file differs from the original")
	}
	// Repair rewrote the strip files; the directory must verify clean.
	if err := runVerify([]string{"-dir", shards}); err != nil {
		t.Fatalf("verify after repair: %v", err)
	}
}

func TestDecodeWithoutFailures(t *testing.T) {
	work := t.TempDir()
	in, data := writeInput(t, work, 10_000)
	shards := filepath.Join(work, "shards")
	out := filepath.Join(work, "plain.bin")
	if err := runEncode([]string{"-in", in, "-dir", shards, "-n", "5", "-r", "4", "-m", "1", "-s", "1", "-sector", "512"}); err != nil {
		t.Fatal(err)
	}
	if err := runDecode([]string{"-dir", shards, "-out", out}); err != nil {
		t.Fatal(err)
	}
	restored, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored, data) {
		t.Fatal("lossless path corrupted the file")
	}
}

func TestDecodeTooManyMissing(t *testing.T) {
	work := t.TempDir()
	in, _ := writeInput(t, work, 5_000)
	shards := filepath.Join(work, "shards")
	if err := runEncode([]string{"-in", in, "-dir", shards, "-n", "5", "-r", "4", "-m", "1", "-s", "1", "-sector", "512"}); err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{0, 1} {
		if err := os.Remove(filepath.Join(shards, diskFileName(j))); err != nil {
			t.Fatal(err)
		}
	}
	if err := runDecode([]string{"-dir", shards, "-out", filepath.Join(work, "x")}); err == nil {
		t.Fatal("2 missing disks accepted by an m=1 code")
	}
}

// TestVerifyChecksumOnlyAndParityFallback: checksummed archives verify
// on CRC-32C alone (no decode), and pre-checksum archives — the
// manifest's checksum rows stripped — still get the full parity-check
// path, including corruption detection.
func TestVerifyChecksumOnlyAndParityFallback(t *testing.T) {
	work := t.TempDir()
	in, _ := writeInput(t, work, 20_000)
	shards := filepath.Join(work, "shards")
	if err := runEncode([]string{"-in", in, "-dir", shards, "-n", "5", "-r", "4", "-m", "1", "-s", "1", "-sector", "512"}); err != nil {
		t.Fatal(err)
	}
	// Checksummed path.
	if err := runVerify([]string{"-dir", shards}); err != nil {
		t.Fatalf("checksummed verify failed on a clean dir: %v", err)
	}
	// Strip the checksum rows: a pre-checksum archive.
	mf, err := readManifest(shards)
	if err != nil {
		t.Fatal(err)
	}
	mf.Checksums = nil
	mf.ChecksumAlgo = ""
	if err := writeManifest(shards, mf); err != nil {
		t.Fatal(err)
	}
	if err := runVerify([]string{"-dir", shards}); err != nil {
		t.Fatalf("parity-fallback verify failed on a clean dir: %v", err)
	}
	// Corruption must still be caught by the parity path.
	path := filepath.Join(shards, diskFileName(1))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[60] ^= 0x08
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runVerify([]string{"-dir", shards}); err == nil {
		t.Fatal("parity-fallback verify missed a flipped bit")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	work := t.TempDir()
	in, _ := writeInput(t, work, 20_000)
	shards := filepath.Join(work, "shards")
	if err := runEncode([]string{"-in", in, "-dir", shards, "-n", "5", "-r", "4", "-m", "1", "-s", "1", "-sector", "512"}); err != nil {
		t.Fatal(err)
	}
	if err := runVerify([]string{"-dir", shards}); err != nil {
		t.Fatalf("clean dir failed verify: %v", err)
	}
	// Flip one bit in one strip file.
	path := filepath.Join(shards, diskFileName(2))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[100] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runVerify([]string{"-dir", shards}); err == nil {
		t.Fatal("verify missed a flipped bit")
	}
}

func TestEncodeArgValidation(t *testing.T) {
	if err := runEncode([]string{"-in", "", "-dir", ""}); err == nil {
		t.Error("missing args accepted")
	}
	if err := runEncode([]string{"-in", "x", "-dir", "y", "-sector", "7"}); err == nil {
		t.Error("unaligned sector accepted")
	}
	if err := runDecode([]string{"-dir", ""}); err == nil {
		t.Error("decode without dir accepted")
	}
	if err := runVerify([]string{"-dir", ""}); err == nil {
		t.Error("verify without dir accepted")
	}
}

func TestScrubLocatesAndRepairs(t *testing.T) {
	work := t.TempDir()
	in, data := writeInput(t, work, 50_000)
	shards := filepath.Join(work, "shards")
	if err := runEncode([]string{"-in", in, "-dir", shards, "-n", "6", "-r", "4", "-m", "2", "-s", "1", "-sector", "512"}); err != nil {
		t.Fatal(err)
	}
	// Flip one bit deep inside a strip file: silent corruption.
	path := filepath.Join(shards, diskFileName(3))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[700] ^= 0x08
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runScrub([]string{"-dir", shards}); err != nil {
		t.Fatalf("report-only scrub errored: %v", err)
	}
	if err := runScrub([]string{"-dir", shards, "-repair"}); err != nil {
		t.Fatalf("repair scrub: %v", err)
	}
	if err := runVerify([]string{"-dir", shards}); err != nil {
		t.Fatalf("verify after scrub repair: %v", err)
	}
	// The restored archive still matches the original payload.
	out := filepath.Join(work, "restored.bin")
	if err := runDecode([]string{"-dir", shards, "-out", out}); err != nil {
		t.Fatal(err)
	}
	restored, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored, data) {
		t.Fatal("payload changed")
	}
}

func TestScrubCleanDirectory(t *testing.T) {
	work := t.TempDir()
	in, _ := writeInput(t, work, 9_000)
	shards := filepath.Join(work, "shards")
	if err := runEncode([]string{"-in", in, "-dir", shards, "-n", "5", "-r", "4", "-m", "1", "-s", "1", "-sector", "512"}); err != nil {
		t.Fatal(err)
	}
	if err := runScrub([]string{"-dir", shards}); err != nil {
		t.Fatalf("clean scrub errored: %v", err)
	}
}

// TestManifestHardening: readManifest rejects coefficient counts that
// disagree with m+s, field word sizes the library doesn't support, and
// strip sizes (stripes × r × sector_size) that overflow.
func TestManifestHardening(t *testing.T) {
	base := manifest{
		N: 8, R: 16, M: 2, S: 2, Word: 8,
		Coeffs:     []uint32{1, 2, 4, 8},
		SectorSize: 4096, Stripes: 3, FileSize: 12345, FileName: "x.bin",
	}
	cases := []struct {
		name   string
		mutate func(mf *manifest)
	}{
		{"short coeffs", func(mf *manifest) { mf.Coeffs = mf.Coeffs[:2] }},
		{"long coeffs", func(mf *manifest) { mf.Coeffs = append(mf.Coeffs, 16) }},
		{"negative m", func(mf *manifest) { mf.M = -1 }},
		{"word 7", func(mf *manifest) { mf.Word = 7 }},
		{"word 0", func(mf *manifest) { mf.Word = 0 }},
		{"word 64", func(mf *manifest) { mf.Word = 64 }},
		{"strip bytes overflow", func(mf *manifest) { mf.SectorSize, mf.Stripes = 1<<40, 1<<30 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			mf := base
			mf.Coeffs = append([]uint32(nil), base.Coeffs...)
			tc.mutate(&mf)
			if err := writeManifest(dir, mf); err != nil {
				t.Fatal(err)
			}
			if _, err := readManifest(dir); err == nil {
				t.Fatalf("manifest with %s accepted", tc.name)
			}
		})
	}
	// The unmutated manifest must still pass.
	dir := t.TempDir()
	if err := writeManifest(dir, base); err != nil {
		t.Fatal(err)
	}
	if _, err := readManifest(dir); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
}

// TestManifestClaimExceedsStrips: a manifest whose stripes × r ×
// sector_size exceeds every strip file on disk, or whose n leaves more
// than m+s strip files missing, is rejected with an error naming the
// manifest, before any buffer or code is sized from it. A 1 TiB
// sector_size used to kill verify and decode with a fatal out-of-memory
// error, and n = 1<<28 over GF(2^32) killed all three commands while
// building the code.
func TestManifestClaimExceedsStrips(t *testing.T) {
	work := t.TempDir()
	in, _ := writeInput(t, work, 200_000)
	shards := filepath.Join(work, "shards")
	if err := runEncode([]string{"-in", in, "-dir", shards}); err != nil {
		t.Fatal(err)
	}
	orig, err := readManifest(shards)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(mf *manifest)
	}{
		{"sector_size", func(mf *manifest) { mf.SectorSize = 1 << 40 }},
		// Without checksum rows the stripe count is checked by the
		// strip files alone.
		{"stripes", func(mf *manifest) { mf.Stripes, mf.ChecksumAlgo, mf.Checksums = 1<<40, "", nil }},
		{"n", func(mf *manifest) {
			mf.N, mf.R, mf.Word, mf.ChecksumAlgo, mf.Checksums = 1<<28, 1, 32, "", nil
		}},
	}
	for _, tc := range cases {
		mf := orig
		tc.mutate(&mf)
		if err := writeManifest(shards, mf); err != nil {
			t.Fatal(err)
		}
		runs := map[string]func() error{
			"verify": func() error { return runVerify([]string{"-dir", shards}) },
			"decode": func() error { return runDecode([]string{"-dir", shards, "-out", filepath.Join(work, "out.bin")}) },
			"scrub":  func() error { return runScrub([]string{"-dir", shards}) },
		}
		for cmd, run := range runs {
			err := run()
			if !errors.Is(err, errManifestExceedsStrips) || !strings.Contains(err.Error(), manifestName) {
				t.Errorf("%s with oversized %s: got %v, want the manifest's claim rejected", cmd, tc.name, err)
			}
		}
	}
}

// TestPipelinedRoundTripManyStripes drives the pipelined encode/decode
// through enough stripes to keep several in flight, with a payload that
// ends mid-stripe (non-stripe-aligned tail), and checks the restored
// bytes and the repaired directory.
func TestPipelinedRoundTripManyStripes(t *testing.T) {
	work := t.TempDir()
	// n=6 m=2 data disks=4 (plus s=1 coding sector), r=4, sector=512:
	// payload per stripe = (4*4-1)*512 = 7680 bytes; 10 stripes minus a
	// ragged tail.
	size := 7680*10 - 1234
	in, data := writeInput(t, work, size)
	shards := filepath.Join(work, "shards")
	out := filepath.Join(work, "restored.bin")

	if err := runEncode([]string{"-in", in, "-dir", shards,
		"-n", "6", "-r", "4", "-m", "2", "-s", "1", "-sector", "512", "-depth", "4"}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	mf, err := readManifest(shards)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Stripes < 8 {
		t.Fatalf("test needs >=8 stripes in flight, got %d", mf.Stripes)
	}
	for _, j := range []int{0, 3} {
		if err := os.Remove(filepath.Join(shards, diskFileName(j))); err != nil {
			t.Fatal(err)
		}
	}
	if err := runDecode([]string{"-dir", shards, "-out", out, "-depth", "4"}); err != nil {
		t.Fatalf("decode: %v", err)
	}
	restored, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored, data) {
		t.Fatal("restored file differs from the original")
	}
	if err := runVerify([]string{"-dir", shards}); err != nil {
		t.Fatalf("verify after repair: %v", err)
	}
}

// TestEncodeEmptyFile: a zero-byte input still produces a decodable
// one-stripe archive.
func TestEncodeEmptyFile(t *testing.T) {
	work := t.TempDir()
	in := filepath.Join(work, "empty.bin")
	if err := os.WriteFile(in, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	shards := filepath.Join(work, "shards")
	out := filepath.Join(work, "restored.bin")
	if err := runEncode([]string{"-in", in, "-dir", shards,
		"-n", "5", "-r", "4", "-m", "1", "-s", "1", "-sector", "512"}); err != nil {
		t.Fatal(err)
	}
	if err := runDecode([]string{"-dir", shards, "-out", out}); err != nil {
		t.Fatal(err)
	}
	restored, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 0 {
		t.Fatalf("restored %d bytes from an empty input", len(restored))
	}
}

// TestEncodeCloseErrorKeepsManifest: a strip handle closed under the
// store makes the store's Close report os.ErrClosed, and the encode's
// last step fails on it before the checksummed manifest is written.
func TestEncodeCloseErrorKeepsManifest(t *testing.T) {
	dir := t.TempDir()
	mf := manifest{
		N: 5, R: 4, M: 1, S: 1, Word: 8,
		Coeffs:     []uint32{1, 2},
		SectorSize: 512, Stripes: 1, FileName: "x.bin",
	}
	if err := writeManifest(dir, mf); err != nil {
		t.Fatal(err)
	}
	ds, err := openStore(dir, mf, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.fh[2].Close(); err != nil {
		t.Fatal(err)
	}
	final := mf
	final.ChecksumAlgo = checksumAlgo
	final.Checksums = [][]uint32{make([]uint32, mf.N*mf.R)}
	if err := finishEncode(dir, ds, final); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("finishEncode = %v, want os.ErrClosed", err)
	}
	got, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.ChecksumAlgo != "" || len(got.Checksums) != 0 {
		t.Fatal("manifest records checksums over a strip that failed to close")
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// flipDiskByte flips one byte of a strip file in place: silent on-disk
// corruption for the checksum layer to catch.
func flipDiskByte(t *testing.T, shards string, disk int, off int64) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(shards, diskFileName(disk)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x5A
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestChaosDecodeStorm is the end-to-end fault storm: an archive with a
// deleted disk, silent on-disk corruption, and an injected schedule of
// transient read errors, a latency spike and a permanently hung strip
// must still decode byte-identically — the transient errors retried
// away, the hung strip demoted at its op deadline and re-decoded, and
// the corruption caught by checksum. The whole storm must resolve
// within the configured deadlines, not wall-clock hours.
func TestChaosDecodeStorm(t *testing.T) {
	work := t.TempDir()
	// n=6 r=4 m=2 s=1, 512-byte sectors: 15 data sectors (7680 B)/stripe.
	size := 7680*8 - 100
	in, data := writeInput(t, work, size)
	shards := filepath.Join(work, "shards")
	out := filepath.Join(work, "restored.bin")
	if err := runEncode([]string{"-in", in, "-dir", shards,
		"-n", "6", "-r", "4", "-m", "2", "-s", "1", "-sector", "512"}); err != nil {
		t.Fatalf("encode: %v", err)
	}

	// Damage: disk 1 gone entirely (baseline erasure), a silent bit flip
	// on disk 2 inside stripe 5 (on-disk, caught by checksum), plus the
	// injected schedule below: two transient read errors on stripe 2
	// disk 0, a permanent hang on stripe 3 disk 3 (demoted at the
	// deadline), a latency spike, and an in-flight bit flip on stripe 4
	// disk 2.
	if err := os.Remove(filepath.Join(shards, diskFileName(1))); err != nil {
		t.Fatal(err)
	}
	stripBytes := int64(4 * 512)
	flipDiskByte(t, shards, 2, 5*stripBytes+123)

	start := time.Now()
	if err := runDecode([]string{"-dir", shards, "-out", out,
		"-retries", "4", "-op-timeout", "150ms",
		"-faults", "seed=7,read@2.0x2,hang@3.3x-1/1h,lat@6.4/5ms,flip@4.2"}); err != nil {
		t.Fatalf("chaos decode: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("chaos decode took %v; deadlines should bound the storm", elapsed)
	}
	restored, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored, data) {
		t.Fatal("payload not byte-identical after the fault storm")
	}
	// Decode repaired the missing disk; the directory must verify clean
	// (checksums and parity) — the in-flight faults never hit the disk.
	if err := runVerify([]string{"-dir", shards}); err == nil {
		t.Fatal("verify should still flag the on-disk flip on disk 2 (decode repairs erasures, not silent corruption)")
	}
	// The self-healing scrub fixes the remaining silent corruption.
	if err := runScrub([]string{"-dir", shards, "-repair"}); err != nil {
		t.Fatalf("scrub -repair: %v", err)
	}
	if err := runVerify([]string{"-dir", shards}); err != nil {
		t.Fatalf("verify after scrub: %v", err)
	}
}

// TestScrubRebuildsMissingDisk: the checksum-era scrub is a full
// self-healing pass — with a disk deleted and a silent flip on another,
// scrub -repair rebuilds both in place and the archive then verifies
// clean and round-trips.
func TestScrubRebuildsMissingDisk(t *testing.T) {
	work := t.TempDir()
	in, data := writeInput(t, work, 40_000)
	shards := filepath.Join(work, "shards")
	if err := runEncode([]string{"-in", in, "-dir", shards,
		"-n", "6", "-r", "4", "-m", "2", "-s", "1", "-sector", "512"}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(shards, diskFileName(4))); err != nil {
		t.Fatal(err)
	}
	flipDiskByte(t, shards, 0, 300)

	if err := runScrub([]string{"-dir", shards, "-repair", "-rate", "64"}); err != nil {
		t.Fatalf("scrub -repair: %v", err)
	}
	if err := runVerify([]string{"-dir", shards}); err != nil {
		t.Fatalf("verify after rebuild: %v", err)
	}
	out := filepath.Join(work, "restored.bin")
	if err := runDecode([]string{"-dir", shards, "-out", out}); err != nil {
		t.Fatal(err)
	}
	restored, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored, data) {
		t.Fatal("payload changed after scrub rebuild")
	}
}

// TestDecodeTornWriteCaught: a torn write at encode time persists a
// half-garbage strip while reporting success — the checksummed decode
// must catch it and still restore the exact payload.
func TestDecodeTornWriteCaught(t *testing.T) {
	work := t.TempDir()
	in, data := writeInput(t, work, 30_000)
	shards := filepath.Join(work, "shards")
	if err := runEncode([]string{"-in", in, "-dir", shards,
		"-n", "6", "-r", "4", "-m", "2", "-s", "1", "-sector", "512",
		"-faults", "seed=3,torn@1.5"}); err != nil {
		t.Fatalf("encode with torn write: %v", err)
	}
	// The damage is silent: verify flags it, decode heals around it.
	if err := runVerify([]string{"-dir", shards}); err == nil {
		t.Fatal("verify missed the torn write")
	}
	out := filepath.Join(work, "restored.bin")
	if err := runDecode([]string{"-dir", shards, "-out", out}); err != nil {
		t.Fatalf("decode around torn write: %v", err)
	}
	restored, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored, data) {
		t.Fatal("payload not byte-identical after torn write")
	}
}
