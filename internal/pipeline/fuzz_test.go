package pipeline

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"strings"
	"testing"

	"ppm/internal/codes"
)

// FuzzStreamRoundTrip runs one to three EncodeStream/DecodeStream pairs
// in turn in one process, so each call's engine takes the slabs the
// call before it gave back; that is what catches one call's bytes
// leaking into the next. The input picks a code from a small zoo (an
// SD, an LRC and an RS), the kind of reader, a sector size, the depth
// (1–6), a seed, the payload lengths and a split offset. The readers
// cover every way the stream coder takes its input: a bytes.Reader
// pushes everything in one Write; an io.MultiReader of two
// bytes.Readers split at the offset pushes twice, carrying the partial
// stripe at the split; a strings.Reader pushes through WriteString; an
// io.SectionReader, which has ReadAt and no WriteTo, is filled by the
// compute shards; a Read-only wrapper is filled in order. An invalid
// sector size — not positive, not a multiple of 4, or so large that the
// stripe overflows int (every code in the zoo has n·r = 32, so 1<<58
// does) — must return an error from both calls and never panic. A
// valid one must reproduce decode.Encode's image of the zero-padded
// payload, and DecodeStream must return the payload under a random
// decodable scenario whose sectors are scribbled in the image. Neither
// call may change a byte of its input: the scribbled sectors are the
// ones a decode recomputes, so a view that wrote into the caller's
// image would show. (Runs its seed corpus under plain `go test`;
// explore with `go test -fuzz FuzzStreamRoundTrip`.)
func FuzzStreamRoundTrip(f *testing.F) {
	sd, err := codes.NewSD(8, 4, 2, 2)
	if err != nil {
		f.Fatal(err)
	}
	lrc, err := codes.NewLRC(28, 2, 2)
	if err != nil {
		f.Fatal(err)
	}
	rs, err := codes.NewRS(8, 4, 2)
	if err != nil {
		f.Fatal(err)
	}
	zoo := []codes.Code{sd, lrc, rs}
	sizes := []struct {
		bytes int
		valid bool
	}{
		{4, true}, {8, true}, {12, true}, {32, true}, {64, true},
		{0, false}, {-4, false}, {-1, false}, {2, false}, {6, false}, {1 << 58, false},
	}
	const kinds = 5 // bytes.Reader, MultiReader, strings.Reader, SectionReader, Read-only

	// sel = kind·len(zoo) + code. Long, then short ending mid-sector,
	// then exactly one stripe.
	f.Add(uint8(0), uint8(4), uint8(3), int64(1), []byte{0xFF, 0x1F, 0x31, 0x02, 0, 0}, uint16(0))
	f.Add(uint8(1), uint8(1), uint8(0), int64(2), []byte{0x00, 0x10, 0x05, 0x00}, uint16(0))
	f.Add(uint8(2), uint8(3), uint8(5), int64(3), []byte{0x80, 0x07, 0x80, 0x07, 0x81, 0x07}, uint16(0))
	f.Add(uint8(0), uint8(5), uint8(0), int64(4), []byte{0x10, 0x00}, uint16(0))
	f.Add(uint8(1), uint8(6), uint8(3), int64(5), []byte{}, uint16(0))
	f.Add(uint8(2), uint8(9), uint8(1), int64(6), []byte{0x40, 0x01}, uint16(0))
	f.Add(uint8(0), uint8(10), uint8(0), int64(7), []byte{0x40, 0x01, 0x00, 0x00}, uint16(0))
	f.Add(uint8(2), uint8(10), uint8(4), int64(8), []byte{0x40, 0x01}, uint16(0))
	// Two pushes: split inside a stripe, on a stripe boundary (SD at
	// 8-byte sectors carries 22·8 = 176 payload bytes a stripe), at 0.
	f.Add(uint8(3), uint8(4), uint8(3), int64(1), []byte{0xFF, 0x1F, 0x31, 0x02, 0, 0}, uint16(1000))
	f.Add(uint8(3), uint8(1), uint8(0), int64(9), []byte{0x00, 0x03}, uint16(176))
	f.Add(uint8(4), uint8(3), uint8(2), int64(10), []byte{0x80, 0x07}, uint16(0))
	f.Add(uint8(5), uint8(0), uint8(1), int64(11), []byte{0x33, 0x01, 0x05, 0x00}, uint16(77))
	// WriteString, the shard fill from ReadAt, and sequential Reads.
	f.Add(uint8(6), uint8(4), uint8(3), int64(1), []byte{0xFF, 0x1F, 0x31, 0x02, 0, 0}, uint16(0))
	f.Add(uint8(8), uint8(3), uint8(0), int64(3), []byte{0x80, 0x07, 0x80, 0x07}, uint16(0))
	f.Add(uint8(9), uint8(4), uint8(3), int64(1), []byte{0xFF, 0x1F, 0x31, 0x02, 0, 0}, uint16(0))
	f.Add(uint8(10), uint8(1), uint8(0), int64(2), []byte{0x00, 0x10, 0x05, 0x00}, uint16(0))
	f.Add(uint8(11), uint8(3), uint8(5), int64(3), []byte{0x80, 0x07, 0x80, 0x07, 0x81, 0x07}, uint16(0))
	f.Add(uint8(12), uint8(4), uint8(3), int64(1), []byte{0xFF, 0x1F, 0x31, 0x02, 0, 0}, uint16(0))
	f.Add(uint8(13), uint8(1), uint8(0), int64(2), []byte{0x00, 0x10, 0x05, 0x00}, uint16(0))
	f.Add(uint8(14), uint8(3), uint8(5), int64(3), []byte{0x80, 0x07, 0x80, 0x07, 0x81, 0x07}, uint16(0))

	f.Fuzz(func(t *testing.T, sel, sizeSel, depth uint8, seed int64, lens []byte, split uint16) {
		c := zoo[int(sel)%len(zoo)]
		kind := int(sel) / len(zoo) % kinds
		reader := func(b []byte) io.Reader {
			switch kind {
			case 1:
				k := int(split) % (len(b) + 1)
				return io.MultiReader(bytes.NewReader(b[:k]), bytes.NewReader(b[k:]))
			case 2:
				return strings.NewReader(string(b))
			case 3:
				return io.NewSectionReader(bytes.NewReader(b), 0, int64(len(b)))
			case 4:
				return struct{ io.Reader }{bytes.NewReader(b)}
			}
			return bytes.NewReader(b)
		}
		size := sizes[int(sizeSel)%len(sizes)]
		sector := size.bytes
		cfg := Config{Depth: 1 + int(depth)%6}
		rng := rand.New(rand.NewSource(seed))

		data := codes.DataPositions(c)
		total := codes.TotalSectors(c)
		// Up to four stripes at the largest valid sector size.
		maxLen := 4 * len(data) * sizes[4].bytes
		var lengths []int
		for i := 0; i+1 < len(lens) && len(lengths) < 3; i += 2 {
			lengths = append(lengths, int(binary.LittleEndian.Uint16(lens[i:]))%(maxLen+1))
		}
		if len(lengths) == 0 {
			lengths = append(lengths, rng.Intn(maxLen+1))
		}

		for _, n := range lengths {
			payload := make([]byte, n)
			rng.Read(payload)

			kept := bytes.Clone(payload)
			var enc bytes.Buffer
			res, err := EncodeStream(c, &enc, reader(payload), sector, cfg)
			if !size.valid {
				if err == nil {
					t.Fatalf("%s: EncodeStream accepted sector size %d", c.Name(), sector)
				}
				if _, err := DecodeStream(c, &enc, reader(payload), codes.EncodingScenario(c), int64(n), sector, cfg); err == nil {
					t.Fatalf("%s: DecodeStream accepted sector size %d", c.Name(), sector)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s, reader %d, sector %d, depth %d, %d bytes: EncodeStream: %v", c.Name(), kind, sector, cfg.Depth, n, err)
			}
			want := encodeImages(t, c, payload, sector)
			if res.Bytes != int64(n) || !bytes.Equal(enc.Bytes(), want) {
				t.Fatalf("%s, reader %d, sector %d, depth %d, %d bytes: EncodeStream's image differs from decode.Encode's",
					c.Name(), kind, sector, cfg.Depth, n)
			}
			if !bytes.Equal(payload, kept) {
				t.Fatalf("%s, reader %d, sector %d, depth %d, %d bytes: EncodeStream changed its input",
					c.Name(), kind, sector, cfg.Depth, n)
			}

			// A random decodable scenario: a random set of at most as
			// many sectors as the code has parities, shortened until it
			// decodes (the empty set always does).
			perm := rng.Perm(total)
			var sc codes.Scenario
			for k := rng.Intn(len(c.ParityPositions()) + 1); ; k-- {
				if sc, err = codes.NewScenario(c, perm[:k]); err != nil {
					t.Fatal(err)
				}
				if codes.Decodable(c, sc) {
					break
				}
			}
			images := enc.Bytes()
			for off := 0; off < len(images); off += total * sector {
				for _, p := range sc.Faulty {
					rng.Read(images[off+p*sector : off+(p+1)*sector])
				}
			}
			kept = bytes.Clone(images)
			var dec bytes.Buffer
			if _, err := DecodeStream(c, &dec, reader(images), sc, int64(n), sector, cfg); err != nil {
				t.Fatalf("%s, reader %d, sector %d, depth %d, %d bytes, faulty %v: DecodeStream: %v",
					c.Name(), kind, sector, cfg.Depth, n, sc.Faulty, err)
			}
			if !bytes.Equal(dec.Bytes(), payload) {
				t.Fatalf("%s, reader %d, sector %d, depth %d, %d bytes, faulty %v: DecodeStream did not return the payload",
					c.Name(), kind, sector, cfg.Depth, n, sc.Faulty)
			}
			if !bytes.Equal(images, kept) {
				t.Fatalf("%s, reader %d, sector %d, depth %d, %d bytes, faulty %v: DecodeStream changed its input",
					c.Name(), kind, sector, cfg.Depth, n, sc.Faulty)
			}
		}
	})
}
