package ppm

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// streamCodes returns one instance per family the stream API supports.
func streamCodes(t *testing.T) map[string]Code {
	t.Helper()
	sd, err := NewSD(6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	lrc, err := NewLRC(6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRS(8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Code{"sd": sd, "lrc": lrc, "rs": rs}
}

// streamScenario builds a two-disk-loss scenario for the code.
func streamScenario(t *testing.T, c Code, disks []int) Scenario {
	t.Helper()
	var faulty []int
	for row := 0; row < c.NumRows(); row++ {
		for _, d := range disks {
			faulty = append(faulty, row*c.NumStrips()+d)
		}
	}
	sc, err := NewScenario(c, faulty)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestStreamRoundTripAcrossCodes pins the public stream API: encode a
// payload with a non-stripe-aligned tail, scribble two disks' bytes in
// every stripe image, decode, and require the exact payload back — for
// SD, LRC and RS alike.
func TestStreamRoundTripAcrossCodes(t *testing.T) {
	const sector = 256
	for name, c := range streamCodes(t) {
		t.Run(name, func(t *testing.T) {
			perStripe := len(DataPositions(c)) * sector
			data := make([]byte, perStripe*9+perStripe/3)
			rand.New(rand.NewSource(11)).Read(data)

			var enc bytes.Buffer
			res, err := EncodeStream(c, &enc, bytes.NewReader(data), sector, StreamConfig{Depth: 4})
			if err != nil {
				t.Fatal(err)
			}
			if res.Bytes != int64(len(data)) || res.Stripes != 10 {
				t.Fatalf("encode consumed %d bytes over %d stripes, want %d over 10", res.Bytes, res.Stripes, len(data))
			}

			sc := streamScenario(t, c, []int{0, 2})
			images := enc.Bytes()
			stripeBytes := c.NumStrips() * c.NumRows() * sector
			for off := 0; off < len(images); off += stripeBytes {
				for _, f := range sc.Faulty {
					rand.New(rand.NewSource(int64(off + f))).Read(images[off+f*sector : off+(f+1)*sector])
				}
			}

			var dec bytes.Buffer
			if _, err := DecodeStream(c, &dec, bytes.NewReader(images), sc, int64(len(data)), sector, StreamConfig{Depth: 4}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dec.Bytes(), data) {
				t.Fatal("decoded payload differs from the original")
			}
		})
	}
}

// TestBatchMatchesDecoder: EncodeBatch/DecodeBatch produce exactly what
// the per-stripe Decoder produces.
func TestBatchMatchesDecoder(t *testing.T) {
	sd, err := NewSD(8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const stripes = 6
	batch := make([]*Stripe, stripes)
	want := make([]*Stripe, stripes)
	for i := range batch {
		st, err := NewStripe(sd.NumStrips(), sd.NumRows(), 512)
		if err != nil {
			t.Fatal(err)
		}
		st.FillDataRandom(int64(i), DataPositions(sd))
		batch[i] = st
		want[i] = st.Clone()
		if err := TraditionalEncode(sd, want[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := EncodeBatch(sd, batch, StreamConfig{Depth: 3}); err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if !batch[i].Equal(want[i]) {
			t.Fatalf("batch stripe %d differs from the Decoder's encode", i)
		}
	}

	sc := streamScenario(t, sd, []int{1, 5})
	for i, st := range batch {
		st.Scribble(int64(50+i), sc.Faulty)
	}
	if err := DecodeBatch(sd, sc, batch, StreamConfig{Depth: 3}); err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if !batch[i].Equal(want[i]) {
			t.Fatalf("batch-decoded stripe %d differs from the original", i)
		}
	}
}

// TestConcurrentStreamCodecs runs EncodeStream and DecodeStream
// concurrently on a shared code instance — the -race check for the
// public stream API.
func TestConcurrentStreamCodecs(t *testing.T) {
	sd, err := NewSD(6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	const sector = 128
	perStripe := len(DataPositions(sd)) * sector
	data := make([]byte, perStripe*5)
	rand.New(rand.NewSource(3)).Read(data)

	var ref bytes.Buffer
	if _, err := EncodeStream(sd, &ref, bytes.NewReader(data), sector, StreamConfig{Depth: 2}); err != nil {
		t.Fatal(err)
	}
	images := ref.Bytes()
	sc := streamScenario(t, sd, []int{3})

	var wg sync.WaitGroup
	errs := make([]error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				var buf bytes.Buffer
				_, err := EncodeStream(sd, &buf, bytes.NewReader(data), sector, StreamConfig{Depth: 3, Workers: 2})
				if err == nil && !bytes.Equal(buf.Bytes(), images) {
					err = errTestMismatch
				}
				errs[g] = err
			} else {
				var buf bytes.Buffer
				_, err := DecodeStream(sd, &buf, bytes.NewReader(images), sc, int64(len(data)), sector, StreamConfig{Depth: 3, Workers: 2})
				if err == nil && !bytes.Equal(buf.Bytes(), data) {
					err = errTestMismatch
				}
				errs[g] = err
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestStreamRejectsBadSectorSize: the public stream calls return an
// error for a sector size they cannot use, where they used to panic —
// 0 and below on the fill goroutine, where no caller could recover it,
// and 1<<58 inside the stripe allocation (n·r·sectorSize overflowed).
func TestStreamRejectsBadSectorSize(t *testing.T) {
	rs, err := NewRS(8, 4, 2) // n·r = 32: a 1<<58-byte sector overflows int
	if err != nil {
		t.Fatal(err)
	}
	sc := streamScenario(t, rs, []int{1})
	data := make([]byte, 1000)
	for _, depth := range []int{0, 1} {
		for _, size := range []int{0, -4, 1 << 58} {
			cfg := StreamConfig{Depth: depth}
			var buf bytes.Buffer
			if _, err := EncodeStream(rs, &buf, bytes.NewReader(data), size, cfg); err == nil {
				t.Errorf("depth %d: EncodeStream accepted sector size %d", depth, size)
			}
			if _, err := DecodeStream(rs, &buf, bytes.NewReader(data), sc, -1, size, cfg); err == nil {
				t.Errorf("depth %d: DecodeStream accepted sector size %d", depth, size)
			}
		}
	}
	if p, err := NewStreamPool(rs, sc, 1<<58, 2, StreamConfig{}); err == nil {
		p.Close()
		t.Error("NewStreamPool accepted a 1<<58-byte sector")
	}
	for _, g := range [][3]int{{16, 16, 1 << 60}, {1 << 40, 1 << 40, 4}} {
		if _, err := NewStripe(g[0], g[1], g[2]); err == nil {
			t.Errorf("NewStripe(%d, %d, %d) accepted an overflowing geometry", g[0], g[1], g[2])
		}
	}
}

var errTestMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "stream output mismatch" }
