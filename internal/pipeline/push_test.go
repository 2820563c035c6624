package pipeline

import (
	"bufio"
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppm/internal/codes"
)

// lostDisks returns images with disks 1 and 4 of every stripe
// scribbled, and the scenario that loses them.
func lostDisks(t *testing.T, sd *codes.SD, images []byte, sector int) ([]byte, codes.Scenario) {
	t.Helper()
	images = bytes.Clone(images)
	var faulty []int
	for row := 0; row < sd.NumRows(); row++ {
		for _, d := range []int{1, 4} {
			faulty = append(faulty, row*sd.NumStrips()+d)
		}
	}
	stripeBytes := codes.TotalSectors(sd) * sector
	for off := 0; off < len(images); off += stripeBytes {
		for _, f := range faulty {
			rand.New(rand.NewSource(int64(off + f))).Read(images[off+f*sector : off+(f+1)*sector])
		}
	}
	sc, err := codes.NewScenario(sd, faulty)
	if err != nil {
		t.Fatal(err)
	}
	return images, sc
}

// TestStreamsLeaveCallerBytes: EncodeStream computes parity over the
// caller's payload where it lies, and DecodeStream reads the caller's
// images where they lie, so neither may write them: the checksum of
// the caller's buffer is the same after each call, for every reader
// that pushes its bytes, whole or in two parts, at every depth. Under
// -race, the shards read that memory while the run goroutine drains.
func TestStreamsLeaveCallerBytes(t *testing.T) {
	atDepths(t, 4, testStreamsLeaveCallerBytes)
}

func testStreamsLeaveCallerBytes(t *testing.T, depth int) {
	sd := testSD(t)
	const sector = 256
	perStripe := len(codes.DataPositions(sd)) * sector
	data := payload(perStripe*11 + perStripe/2)
	want := encodeSerialImages(t, sd, data, sector)
	cfg := Config{Depth: depth, Workers: 2}
	readers := map[string]func(b []byte) io.Reader{
		"bytes.Reader":   func(b []byte) io.Reader { return bytes.NewReader(b) },
		"bytes.Buffer":   func(b []byte) io.Reader { return bytes.NewBuffer(b) },
		"strings.Reader": func(b []byte) io.Reader { return strings.NewReader(string(b)) },
		"MultiReader": func(b []byte) io.Reader {
			k := len(b)/3 + 5
			return io.MultiReader(bytes.NewReader(b[:k]), bytes.NewReader(b[k:]))
		},
	}
	for name, of := range readers {
		sum := crc32.ChecksumIEEE(data)
		var enc bytes.Buffer
		if _, err := EncodeStream(sd, &enc, of(data), sector, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if crc32.ChecksumIEEE(data) != sum {
			t.Fatalf("%s: EncodeStream changed the caller's payload", name)
		}
		if !bytes.Equal(enc.Bytes(), want) {
			t.Fatalf("%s: EncodeStream's images differ from the serial loop's", name)
		}

		images, sc := lostDisks(t, sd, want, sector)
		sum = crc32.ChecksumIEEE(images)
		var dec bytes.Buffer
		if _, err := DecodeStream(sd, &dec, of(images), sc, int64(len(data)), sector, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if crc32.ChecksumIEEE(images) != sum {
			t.Fatalf("%s: DecodeStream changed the caller's images", name)
		}
		if !bytes.Equal(dec.Bytes(), data) {
			t.Fatalf("%s: DecodeStream did not return the payload", name)
		}
	}
}

// TestBufferedFileStream: a bufio.Reader over an *os.File that has
// buffered a few bytes pushes them first (its WriteTo), and the file's
// own WriteTo then hands the rest to ReadFrom through a wrapper that
// keeps ReadAt and Seek: the shards fill from the file after completing
// the carried stripe from it, and the file's last partial stripe runs
// zero-padded once the stream ends. The output is byte-identical to the
// serial loop's both ways.
func TestBufferedFileStream(t *testing.T) {
	atDepths(t, 4, testBufferedFileStream)
}

func testBufferedFileStream(t *testing.T, depth int) {
	sd := testSD(t)
	const sector = 256
	perStripe := len(codes.DataPositions(sd)) * sector
	data := payload(perStripe*5 + perStripe/3)
	want := encodeSerialImages(t, sd, data, sector)
	images, sc := lostDisks(t, sd, want, sector)
	cfg := Config{Depth: depth, Workers: 2}
	dir := t.TempDir()

	open := func(name string, b []byte) *bufio.Reader {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o600); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		br := bufio.NewReaderSize(f, 16)
		if _, err := br.Peek(1); err != nil { // buffer the first 16 bytes
			t.Fatal(err)
		}
		return br
	}

	var enc bytes.Buffer
	res, err := EncodeStream(sd, &enc, open("payload", data), sector, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != int64(len(data)) || res.Stripes != 6 || !bytes.Equal(enc.Bytes(), want) {
		t.Fatalf("encoded %d bytes into %d stripes, images equal %v; want %d bytes, 6 stripes, equal",
			res.Bytes, res.Stripes, bytes.Equal(enc.Bytes(), want), len(data))
	}
	var dec bytes.Buffer
	if _, err := DecodeStream(sd, &dec, open("images", images), sc, int64(len(data)), sector, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Bytes(), data) {
		t.Fatal("DecodeStream over a buffered file did not return the payload")
	}
}

// failAt is a writer that fails once off bytes have been written.
type failAt struct {
	off, n int
	err    error
}

func (w *failAt) Write(p []byte) (int, error) {
	if w.n+len(p) > w.off {
		return 0, w.err
	}
	w.n += len(p)
	return len(p), nil
}

// TestStreamErrorsNameStreamStripe: a stream pushed in several parts
// runs the engine once per part, and errors still name the stripe's
// index in the whole stream, not in its run.
func TestStreamErrorsNameStreamStripe(t *testing.T) {
	sd := testSD(t)
	const sector = 64
	perStripe := len(codes.DataPositions(sd)) * sector
	image := codes.TotalSectors(sd) * sector
	data := payload(perStripe * 6)
	// Stripes 0 and 1 and half of 2 in the first push; the second
	// push completes stripe 2, then runs 3 to 5.
	split := func(b []byte, k int) io.Reader {
		return io.MultiReader(bytes.NewReader(b[:k]), bytes.NewReader(b[k:]))
	}
	w := &failAt{off: 3 * image, err: errors.New("disk full")}
	_, err := EncodeStream(sd, w, split(data, perStripe*5/2), sector, Config{Depth: 4, Workers: 2})
	if !errors.Is(err, w.err) || !strings.Contains(err.Error(), "stripe 3:") {
		t.Fatalf("got %v, want the write error at stripe 3", err)
	}

	// A truncated last image: carried by a push, met by a pull.
	images := encodeSerialImages(t, sd, data, sector)
	truncated := images[:len(images)-7]
	for name, src := range map[string]io.Reader{
		"pushed": split(truncated, image*5/2),
		"pulled": struct{ io.Reader }{bytes.NewReader(truncated)},
	} {
		_, err = DecodeStream(sd, io.Discard, src, codes.Scenario{}, -1, sector, Config{Depth: 4, Workers: 2})
		if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "stripe 5: truncated") {
			t.Fatalf("%s: got %v, want a truncated image at stripe 5", name, err)
		}
	}
}

// lenPusher pushes b in two writes, split at at, and reports len as its
// remaining length.
type lenPusher struct {
	b       []byte
	at, len int
}

func (p *lenPusher) Read([]byte) (int, error) { return 0, errors.New("lenPusher: Read called") }
func (p *lenPusher) Len() int                 { return p.len }

func (p *lenPusher) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(p.b[:p.at])
	if err != nil {
		return int64(n), err
	}
	m, err := w.Write(p.b[p.at:])
	return int64(n + m), err
}

// TestStreamLenEndsStream: the push that reaches the length a reader
// reported ends the stream, its partial stripe zero-padded in the same
// run. A reader that then pushes more fails the call rather than
// produce a padded stripe in the middle of the stream.
func TestStreamLenEndsStream(t *testing.T) {
	sd := testSD(t)
	const sector = 64
	perStripe := len(codes.DataPositions(sd)) * sector
	data := payload(perStripe*3 + perStripe/2)
	want := encodeSerialImages(t, sd, data, sector)
	cfg := Config{Depth: 4, Workers: 2}

	var enc bytes.Buffer
	res, err := EncodeStream(sd, &enc, &lenPusher{b: data, at: perStripe + 9, len: len(data)}, sector, cfg)
	if err != nil || res.Bytes != int64(len(data)) || !bytes.Equal(enc.Bytes(), want) {
		t.Fatalf("honest Len: consumed %d of %d bytes, err %v, images equal %v",
			res.Bytes, len(data), err, bytes.Equal(enc.Bytes(), want))
	}
	short := perStripe + 9
	if _, err := EncodeStream(sd, io.Discard, &lenPusher{b: data, at: short, len: short}, sector, cfg); err == nil ||
		!strings.Contains(err.Error(), "Len reported") {
		t.Fatalf("a reader pushing past its Len: got %v, want an error", err)
	}
}

// TestStreamPartsCarry: a stream that reaches the coder in parts of
// every kind (pushes from a bytes.Reader, shard fills from an
// io.SectionReader, sequential fills from a Read-only reader), each
// ending inside a stripe and some shorter than the rest of the carried
// one, encodes and decodes exactly as the whole stream does.
func TestStreamPartsCarry(t *testing.T) {
	sd := testSD(t)
	const sector = 64
	perStripe := len(codes.DataPositions(sd)) * sector
	image := codes.TotalSectors(sd) * sector
	data := payload(perStripe*5 + perStripe/3)
	want := encodeSerialImages(t, sd, data, sector)
	images, sc := lostDisks(t, sd, want, sector)
	of := func(kind byte, b []byte) io.Reader {
		switch kind {
		case 's':
			return io.NewSectionReader(bytes.NewReader(b), 0, int64(len(b)))
		case 'r':
			return struct{ io.Reader }{bytes.NewReader(b)}
		}
		return bytes.NewReader(b)
	}
	// Each part is a kind and where it ends, in stripes; the last part
	// runs to the end.
	type part struct {
		kind byte
		end  float64
	}
	for _, parts := range [][]part{
		{{'b', 2.5}, {'s', 2.7}, {'b', 0}},
		{{'b', 0.3}, {'r', 0.6}, {'s', 0}},
		{{'s', 1.5}, {'b', 0}},
		{{'r', 1.5}, {'s', 2.7}, {'r', 0}},
	} {
		split := func(b []byte, stripe int) io.Reader {
			var rs []io.Reader
			prev := 0
			for i, p := range parts {
				end := len(b)
				if i < len(parts)-1 {
					end = int(p.end * float64(stripe))
				}
				rs = append(rs, of(p.kind, b[prev:end]))
				prev = end
			}
			return io.MultiReader(rs...)
		}
		for _, depth := range []int{1, 4} {
			cfg := Config{Depth: depth, Workers: 2}
			var enc bytes.Buffer
			res, err := EncodeStream(sd, &enc, split(data, perStripe), sector, cfg)
			if err != nil || res.Bytes != int64(len(data)) || !bytes.Equal(enc.Bytes(), want) {
				t.Fatalf("%+v, depth %d: encoded %d of %d bytes, err %v, images equal %v",
					parts, depth, res.Bytes, len(data), err, bytes.Equal(enc.Bytes(), want))
			}
			var dec bytes.Buffer
			if _, err := DecodeStream(sd, &dec, split(images, image), sc, int64(len(data)), sector, cfg); err != nil ||
				!bytes.Equal(dec.Bytes(), data) {
				t.Fatalf("%+v, depth %d: decode err %v, payload equal %v", parts, depth, err, bytes.Equal(dec.Bytes(), data))
			}
		}
	}
}
