package pipeline

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ppm/internal/codes"
	"ppm/internal/stripe"
)

// latchedSource is a concurrent source whose Next(0) waits until
// Next(1) has started: only an engine that fills on more than one
// goroutine can finish it. A fill goroutine that calls Next in turn
// waits on Next(0) forever.
type latchedSource struct {
	count   int
	started chan struct{} // closed by Next(1)
}

func (s *latchedSource) ConcurrentNext() {}

func (s *latchedSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	switch {
	case idx >= s.count:
		return nil, nil
	case idx == 0:
		<-s.started
	case idx == 1:
		close(s.started)
	}
	return slab, nil
}

// TestShardsFillConcurrentSource: an engine of Depth 2 and two shards
// fills a concurrent source's stripes on the shards, so stripe 1's fill
// starts while stripe 0's is still running, and the run completes in
// order.
func TestShardsFillConcurrentSource(t *testing.T) {
	sd := testSD(t)
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sink := &recordSink{}
	done := make(chan error, 1)
	go func() {
		n, err := e.Run(&latchedSource{count: 6, started: make(chan struct{})}, sink)
		if err == nil && n != 6 {
			err = errors.New("drained the wrong number of stripes")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stripe 0's fill still waits for stripe 1's after 10s: the engine fills one stripe at a time")
	}
	for i, idx := range sink.idxs {
		if idx != i {
			t.Fatalf("drained %v, want 0..5 in order", sink.idxs)
		}
	}
}

// overlapSource counts the Next calls in flight and records the most it
// saw at once.
type overlapSource struct {
	count          int
	inFlight, most atomic.Int32
}

func (s *overlapSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	n := s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	for {
		m := s.most.Load()
		if n <= m || s.most.CompareAndSwap(m, n) {
			break
		}
	}
	if idx >= s.count {
		return nil, nil
	}
	time.Sleep(200 * time.Microsecond) // give an overlapping call time to arrive
	return slab, nil
}

// TestSequentialSourceNeverOverlaps: a source that does not declare
// concurrent fills never sees two Next calls at once, however many
// shards the engine has.
func TestSequentialSourceNeverOverlaps(t *testing.T) {
	sd := testSD(t)
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	src := &overlapSource{count: 32}
	if n, err := e.Run(src, &recordSink{}); err != nil || n != 32 {
		t.Fatalf("drained %d stripes, err %v; want 32", n, err)
	}
	if most := src.most.Load(); most != 1 {
		t.Fatalf("a sequential source saw %d Next calls at once", most)
	}
}

// slowFailSource is a concurrent source that fails at stripe 2 after a
// delay and at stripe 5 at once.
type slowFailSource struct{ boom2, boom5 error }

func (s *slowFailSource) ConcurrentNext() {}

func (s *slowFailSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	switch idx {
	case 2:
		time.Sleep(20 * time.Millisecond) // let stripe 5 fail first
		return nil, s.boom2
	case 5:
		return nil, s.boom5
	}
	return slab, nil
}

// TestConcurrentFillLowestIndexErrorWins: when shards fill, the fill
// failure with the lowest index wins, whichever fails first, and only
// the stripes before it drain.
func TestConcurrentFillLowestIndexErrorWins(t *testing.T) {
	sd := testSD(t)
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	src := &slowFailSource{boom2: errors.New("read failed at 2"), boom5: errors.New("read failed at 5")}
	sink := &recordSink{}
	n, err := e.Run(src, sink)
	if !errors.Is(err, src.boom2) || !strings.Contains(err.Error(), "stripe 2") {
		t.Fatalf("got %v, want the stripe-2 read error", err)
	}
	if n != 2 {
		t.Fatalf("drained %d stripes, want 2", n)
	}
}

// TestStreamsAfterHeader: EncodeStream and DecodeStream over a
// bytes.Reader already advanced past a header read from that offset,
// produce the same bytes as from a fresh reader, and leave the reader
// after what they consumed, as a sequential read would.
func TestStreamsAfterHeader(t *testing.T) {
	sd := testSD(t)
	const sector = 64
	data := payload(5*len(codes.DataPositions(sd))*sector + 100)
	header := []byte("a header the stream must not read")
	want := encodeSerialImages(t, sd, data, sector)
	cfg := Config{Depth: 4, Workers: 2}

	r := bytes.NewReader(append(append([]byte(nil), header...), data...))
	if _, err := r.Seek(int64(len(header)), io.SeekStart); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	res, err := EncodeStream(sd, &img, r, sector, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != int64(len(data)) || !bytes.Equal(img.Bytes(), want) {
		t.Fatalf("EncodeStream after a header consumed %d of %d bytes; image equal %v",
			res.Bytes, len(data), bytes.Equal(img.Bytes(), want))
	}
	if pos, _ := r.Seek(0, io.SeekCurrent); pos != int64(len(header)+len(data)) {
		t.Fatalf("EncodeStream left the reader at %d, want %d", pos, len(header)+len(data))
	}

	r = bytes.NewReader(append(append([]byte(nil), header...), want...))
	if _, err := r.Seek(int64(len(header)), io.SeekStart); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := DecodeStream(sd, &out, r, codes.Scenario{}, int64(len(data)), sector, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("DecodeStream after a header did not return the payload")
	}
	if pos, _ := r.Seek(0, io.SeekCurrent); pos <= int64(len(header)) || pos > int64(len(header)+len(want)) {
		t.Fatalf("DecodeStream left the reader at %d, outside the images at [%d, %d]",
			pos, len(header), len(header)+len(want))
	}
}

// TestPastEndFillLeavesSlab: a fill past the end of the stream returns
// (nil, nil) without touching the slab. The shards call Next on a few
// indices past the end of a ReaderAt stream, and an empty stream's
// first Next is one too; each used to clear every data sector first.
func TestPastEndFillLeavesSlab(t *testing.T) {
	sd := testSD(t)
	const sector = 64
	data := codes.DataPositions(sd)
	slab, err := stripe.New(sd.NumStrips(), sd.NumRows(), sector)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < slab.TotalSectors(); i++ {
		for j := range slab.Sector(i) {
			slab.Sector(i)[j] = 0xA5
		}
	}
	want := slab.Clone()
	stream := payload(2 * len(data) * sector)
	for _, c := range []struct {
		name string
		in   streamReader
	}{
		{"empty reader", streamReader{r: bytes.NewReader(nil)}},
		{"past a ReaderAt's end", streamReader{at: bytes.NewReader(stream), off: int64(len(stream))}},
	} {
		name, in := c.name, c.in
		rs := readerSource{in: in, data: data}
		st, err := rs.Next(2, slab)
		if st != nil || err != nil {
			t.Fatalf("%s: Next returned (%v, %v), want (nil, nil)", name, st, err)
		}
		if !slab.Equal(want) {
			t.Fatalf("%s: Next wrote into the slab", name)
		}
	}
}
