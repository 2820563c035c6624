package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ppm/internal/codes"
	"ppm/internal/decode"
	"ppm/internal/stripe"
)

func testSD(t *testing.T) *codes.SD {
	t.Helper()
	sd, err := codes.NewSD(6, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sd
}

// atDepths runs fn as one subtest per engine shape: Depth 1, which runs
// on the caller's goroutine, and the staged depth the test was written
// for.
func atDepths(t *testing.T, staged int, fn func(t *testing.T, depth int)) {
	t.Helper()
	for _, depth := range []int{1, staged} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) { fn(t, depth) })
	}
}

// declared declares a test source concurrent, so a staged engine's
// shards fill it. Every stateless test source is safe for that, and
// those that end return (nil, nil) for every index past the end.
type declared struct{ Source }

func (declared) ConcurrentNext() {}

// atFills runs fn as atDepths does, with the test's sources as they
// are (fill is the identity), and once more at the staged depth with
// them declared concurrent.
func atFills(t *testing.T, staged int, fn func(t *testing.T, depth int, fill func(Source) Source)) {
	t.Helper()
	atDepths(t, staged, func(t *testing.T, depth int) {
		fn(t, depth, func(s Source) Source { return s })
	})
	t.Run(fmt.Sprintf("concurrent-depth=%d", staged), func(t *testing.T) {
		fn(t, staged, func(s Source) Source { return declared{s} })
	})
}

// payload returns size deterministic pseudo-random bytes.
func payload(size int) []byte {
	data := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(data)
	return data
}

// encodeSerialImages encodes data with the fixed serial loop and
// returns the stream image bytes — the reference the pipeline's output
// must match byte for byte.
func encodeSerialImages(t *testing.T, c codes.Code, data []byte, sectorSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	src := &readerSource{in: streamReader{r: bytes.NewReader(data)}, data: codes.DataPositions(c)}
	if _, err := Serial(c, codes.EncodingScenario(c), sectorSize, Config{}, src, &imageSink{w: &buf}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamRoundTrip pins the full streaming path: EncodeStream's
// output is byte-identical to the serial loop's, and after scribbling
// over two whole disks' bytes in the stream, DecodeStream recovers the
// exact payload — including a non-stripe-aligned tail.
func TestStreamRoundTrip(t *testing.T) {
	atDepths(t, 4, testStreamRoundTrip)
}

func testStreamRoundTrip(t *testing.T, depth int) {
	sd := testSD(t)
	const sector = 256
	// 11.5 stripes of payload: the tail exercises zero-padding and trim.
	perStripe := len(codes.DataPositions(sd)) * sector
	data := payload(perStripe*11 + perStripe/2)

	want := encodeSerialImages(t, sd, data, sector)

	var enc bytes.Buffer
	res, err := EncodeStream(sd, &enc, bytes.NewReader(data), sector, Config{Depth: depth, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != int64(len(data)) {
		t.Fatalf("consumed %d bytes, want %d", res.Bytes, len(data))
	}
	if !bytes.Equal(enc.Bytes(), want) {
		t.Fatal("pipeline encode output differs from the serial loop's")
	}

	// Lose disks 1 and 4: scribble their bytes in every stripe image.
	images := append([]byte(nil), enc.Bytes()...)
	var faulty []int
	for row := 0; row < sd.NumRows(); row++ {
		for _, d := range []int{1, 4} {
			faulty = append(faulty, row*sd.NumStrips()+d)
		}
	}
	stripeBytes := sd.NumStrips() * sd.NumRows() * sector
	for off := 0; off < len(images); off += stripeBytes {
		for _, f := range faulty {
			rand.New(rand.NewSource(int64(off + f))).Read(images[off+f*sector : off+(f+1)*sector])
		}
	}
	sc, err := codes.NewScenario(sd, faulty)
	if err != nil {
		t.Fatal(err)
	}

	var dec bytes.Buffer
	dres, err := DecodeStream(sd, &dec, bytes.NewReader(images), sc, int64(len(data)), sector, Config{Depth: depth, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if dres.Stripes != res.Stripes {
		t.Fatalf("decoded %d stripes, encoded %d", dres.Stripes, res.Stripes)
	}
	if !bytes.Equal(dec.Bytes(), data) {
		t.Fatal("decoded payload differs from the original")
	}
}

// TestDecodeStreamPassthrough: the empty scenario extracts an intact
// stream with no compute.
func TestDecodeStreamPassthrough(t *testing.T) {
	sd := testSD(t)
	const sector = 128
	data := payload(3000)
	images := encodeSerialImages(t, sd, data, sector)
	var out bytes.Buffer
	if _, err := DecodeStream(sd, &out, bytes.NewReader(images), codes.Scenario{}, int64(len(data)), sector, Config{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("passthrough extract corrupted the payload")
	}
}

// recordSink records the drain order.
type recordSink struct {
	mu   sync.Mutex
	idxs []int
}

func (s *recordSink) Drain(idx int, _ *stripe.Stripe) error {
	s.mu.Lock()
	s.idxs = append(s.idxs, idx)
	s.mu.Unlock()
	return nil
}

// constSource produces count stripes without touching the slab.
type constSource struct{ count int }

func (s *constSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	if idx >= s.count {
		return nil, nil
	}
	return slab, nil
}

// TestInOrderUnderOutOfOrderCompletion forces compute completion in
// roughly reverse index order (earlier stripes stall longer across 4
// shards) and checks the sink still sees strictly increasing indices.
func TestInOrderUnderOutOfOrderCompletion(t *testing.T) {
	sd := testSD(t)
	const stripes = 12
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var mu sync.Mutex
	var completed []int
	e.testDelay = func(idx int) {
		if idx < 8 {
			time.Sleep(time.Duration(8-idx) * 5 * time.Millisecond)
		}
		mu.Lock()
		completed = append(completed, idx)
		mu.Unlock()
	}

	sink := &recordSink{}
	n, err := e.Run(&constSource{count: stripes}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if n != stripes {
		t.Fatalf("drained %d stripes, want %d", n, stripes)
	}
	for i, idx := range sink.idxs {
		if idx != i {
			t.Fatalf("drain order %v is not the stripe order", sink.idxs)
		}
	}
	// Sanity: the schedule above really did complete out of order
	// (stripe 1 must finish before stripe 0 given 4 concurrent shards
	// and a 35ms spread).
	mu.Lock()
	defer mu.Unlock()
	inOrder := true
	for i := 1; i < len(completed); i++ {
		if completed[i] < completed[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Log("warning: compute completed in order; reordering not exercised this run")
	}
}

// TestLowestIndexComputeErrorWins injects compute failures at stripes 2
// and 5, with 5 completing first when the engine is staged; the
// reported error must carry stripe 2, and only stripes 0 and 1 may
// drain.
func TestLowestIndexComputeErrorWins(t *testing.T) {
	atFills(t, 8, testLowestIndexComputeErrorWins)
}

func testLowestIndexComputeErrorWins(t *testing.T, depth int, fill func(Source) Source) {
	sd := testSD(t)
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: depth, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	boom2, boom5 := errors.New("boom at 2"), errors.New("boom at 5")
	e.testDelay = func(idx int) {
		if idx == 2 {
			time.Sleep(20 * time.Millisecond) // let stripe 5 fail first
		}
	}
	e.testFail = func(idx int) error {
		switch idx {
		case 2:
			return boom2
		case 5:
			return boom5
		}
		return nil
	}

	sink := &recordSink{}
	n, err := e.Run(fill(&constSource{count: 10}), sink)
	if err == nil {
		t.Fatal("injected failures, Run returned nil")
	}
	if !errors.Is(err, boom2) {
		t.Fatalf("got %v, want the stripe-2 error", err)
	}
	if !strings.Contains(err.Error(), "stripe 2") {
		t.Fatalf("error %q does not name stripe 2", err)
	}
	if n != 2 {
		t.Fatalf("drained %d stripes after a stripe-2 failure, want 2", n)
	}
}

// failSource errors at a chosen index.
type failSource struct {
	at  int
	err error
}

func (s *failSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	if idx == s.at {
		return nil, s.err
	}
	return slab, nil
}

// TestFillErrorPropagates: a source failure carries its stripe index
// and stops intake after draining the preceding stripes.
func TestFillErrorPropagates(t *testing.T) {
	atFills(t, 4, testFillErrorPropagates)
}

func testFillErrorPropagates(t *testing.T, depth int, fill func(Source) Source) {
	sd := testSD(t)
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	boom := errors.New("read failed")
	sink := &recordSink{}
	n, err := e.Run(fill(&failSource{at: 3, err: boom}), sink)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the injected read error", err)
	}
	if !strings.Contains(err.Error(), "stripe 3") {
		t.Fatalf("error %q does not name stripe 3", err)
	}
	if n != 3 {
		t.Fatalf("drained %d stripes, want 3", n)
	}
}

// errSink fails at a chosen index.
type errSink struct {
	at  int
	err error
	n   int
}

func (s *errSink) Drain(idx int, _ *stripe.Stripe) error {
	if idx == s.at {
		return s.err
	}
	s.n++
	return nil
}

// TestDrainErrorStops: a sink failure carries its stripe index too.
func TestDrainErrorStops(t *testing.T) {
	atFills(t, 4, testDrainErrorStops)
}

func testDrainErrorStops(t *testing.T, depth int, fill func(Source) Source) {
	sd := testSD(t)
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	boom := errors.New("write failed")
	sink := &errSink{at: 2, err: boom}
	n, err := e.Run(fill(&constSource{count: 8}), sink)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "stripe 2") {
		t.Fatalf("got %v, want the stripe-2 write error", err)
	}
	if n != 2 {
		t.Fatalf("drained %d stripes, want 2", n)
	}
}

// slowSink paces the drain stage so a cancellation lands mid-stream.
type slowSink struct {
	after   int
	cancel  context.CancelFunc
	drained int
}

func (s *slowSink) Drain(idx int, _ *stripe.Stripe) error {
	s.drained++
	if s.drained == s.after {
		s.cancel()
	}
	return nil
}

// TestCancellationDrainsCleanly cancels mid-stream and checks the run
// stops with ctx.Err(), every job returns to the free list, and the
// engine stays usable.
func TestCancellationDrainsCleanly(t *testing.T) {
	atFills(t, 4, testCancellationDrainsCleanly)
}

func testCancellationDrainsCleanly(t *testing.T, depth int, fill func(Source) Source) {
	sd := testSD(t)
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: depth, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &slowSink{after: 5, cancel: cancel}
	n, err := e.RunContext(ctx, fill(&constSource{count: 1 << 30}), sink) // effectively unbounded
	_ = n
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := len(e.free); got != e.cfg.Depth {
		t.Fatalf("%d of %d jobs returned to the free list", got, e.cfg.Depth)
	}

	// The engine is reusable after cancellation.
	sink2 := &recordSink{}
	n, err = e.Run(fill(&constSource{count: 6}), sink2)
	if err != nil || n != 6 {
		t.Fatalf("post-cancel run: n=%d err=%v, want 6 stripes clean", n, err)
	}
	if got := len(e.free); got != e.cfg.Depth {
		t.Fatalf("%d of %d jobs returned to the free list after reuse", got, e.cfg.Depth)
	}
}

// TestRunContextPreCancelled: a context cancelled before Run drains
// nothing but still returns cleanly.
func TestRunContextPreCancelled(t *testing.T) {
	atDepths(t, 2, testRunContextPreCancelled)
}

func testRunContextPreCancelled(t *testing.T, depth int) {
	sd := testSD(t)
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunContext(ctx, &constSource{count: 100}, &recordSink{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := len(e.free); got != e.cfg.Depth {
		t.Fatalf("%d of %d jobs returned to the free list", got, e.cfg.Depth)
	}
}

// TestEngineReuseAfterError: a failed run leaves the engine consistent.
func TestEngineReuseAfterError(t *testing.T) {
	atDepths(t, 4, testEngineReuseAfterError)
}

func testEngineReuseAfterError(t *testing.T, depth int) {
	sd := testSD(t)
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if _, err := e.Run(&failSource{at: 1, err: errors.New("x")}, &recordSink{}); err == nil {
		t.Fatal("injected failure not reported")
	}
	sink := &recordSink{}
	n, err := e.Run(&constSource{count: 5}, sink)
	if err != nil || n != 5 {
		t.Fatalf("post-error run: n=%d err=%v", n, err)
	}
}

// panicSource panics at a chosen index and ends the stream at count.
type panicSource struct{ at, count int }

func (s *panicSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	if idx == s.at {
		panic("source failed")
	}
	if idx >= s.count {
		return nil, nil
	}
	return slab, nil
}

// panicSink panics at a chosen index.
type panicSink struct{ at int }

func (s panicSink) Drain(idx int, _ *stripe.Stripe) error {
	if idx == s.at {
		panic("sink failed")
	}
	return nil
}

// TestStagePanicFailsStripe: a panic in Source.Next or Sink.Drain fails
// the run at that stripe, with an error naming it, after draining the
// stripes before it; every job returns to the free list, and the same
// engine then runs a clean stream to the end.
func TestStagePanicFailsStripe(t *testing.T) {
	atFills(t, 4, testStagePanicFailsStripe)
}

func testStagePanicFailsStripe(t *testing.T, depth int, fill func(Source) Source) {
	sd := testSD(t)
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	runs := []struct {
		stage string
		src   Source
		dst   Sink
	}{
		{"source", fill(&panicSource{at: 3, count: 8}), &recordSink{}},
		{"sink", fill(&constSource{count: 8}), panicSink{at: 3}},
	}
	for _, r := range runs {
		n, err := e.Run(r.src, r.dst)
		if err == nil || !strings.Contains(err.Error(), r.stage+" stripe 3 panicked") {
			t.Fatalf("%s panic at stripe 3: got %v, want that stripe's error", r.stage, err)
		}
		if n != 3 {
			t.Fatalf("%s panic at stripe 3: drained %d stripes, want 3", r.stage, n)
		}
		if got := len(e.free); got != e.cfg.Depth || !e.Healthy() {
			t.Fatalf("after a %s panic: %d of %d jobs free, healthy %v", r.stage, got, e.cfg.Depth, e.Healthy())
		}
		sink := &recordSink{}
		done := make(chan error, 1)
		go func() {
			n, err := e.Run(fill(&constSource{count: 6}), sink)
			if err == nil && n != 6 {
				err = fmt.Errorf("drained %d stripes, want 6", n)
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run after a %s panic: %v", r.stage, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("run after a %s panic still blocked after 10s", r.stage)
		}
		for i, idx := range sink.idxs {
			if idx != i {
				t.Fatalf("run after a %s panic drained %v, want 0..5 in order", r.stage, sink.idxs)
			}
		}
	}
}

// TestClosedEngineRejectsRun: Run after Close errors instead of
// deadlocking or panicking.
func TestClosedEngineRejectsRun(t *testing.T) {
	sd := testSD(t)
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.Run(&constSource{count: 1}, &recordSink{}); err == nil {
		t.Fatal("Run on a closed engine succeeded")
	}
}

// TestDepthOneStartsNoGoroutines: a Depth-1 engine runs on the caller's
// goroutine, so New, Run and Close leave the goroutine count where it
// was — no fill stage, no compute shards.
func TestDepthOneStartsNoGoroutines(t *testing.T) {
	sd := testSD(t)
	before := settledGoroutines()
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(&constSource{count: 4}, &recordSink{}); err != nil {
		t.Fatal(err)
	}
	during := runtime.NumGoroutine()
	e.Close()
	if after := runtime.NumGoroutine(); during != before || after != before {
		t.Fatalf("goroutines: %d before New, %d after Run, %d after Close; want no change", before, during, after)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for 20 ms (2 s at most): goroutines that earlier tests released, such
// as closed engines' stages, exit asynchronously and would otherwise
// move the count mid-measurement.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still, start := 0, time.Now(); still < 20 && time.Since(start) < 2*time.Second; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// TestBatchEncodeDecode: Batch encodes a set of stripes identically to
// the traditional encoder and decodes a two-disk loss back to the
// original content, in place.
func TestBatchEncodeDecode(t *testing.T) {
	sd := testSD(t)
	const sector = 512
	const stripes = 9

	batch := make([]*stripe.Stripe, stripes)
	want := make([]*stripe.Stripe, stripes)
	for i := range batch {
		st, err := stripe.New(sd.NumStrips(), sd.NumRows(), sector)
		if err != nil {
			t.Fatal(err)
		}
		st.FillDataRandom(int64(i), codes.DataPositions(sd))
		batch[i] = st
		ref := st.Clone()
		if err := decode.Encode(sd, ref, decode.Options{}); err != nil {
			t.Fatal(err)
		}
		want[i] = ref
	}

	if err := Batch(sd, codes.EncodingScenario(sd), batch, Config{Depth: 4, Workers: 3}); err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if !batch[i].Equal(want[i]) {
			t.Fatalf("batch-encoded stripe %d differs from the traditional encoder", i)
		}
	}

	// Lose two disks across the whole batch and repair it in place.
	var faulty []int
	for row := 0; row < sd.NumRows(); row++ {
		for _, d := range []int{0, 3} {
			faulty = append(faulty, row*sd.NumStrips()+d)
		}
	}
	sc, err := codes.NewScenario(sd, faulty)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range batch {
		st.Scribble(int64(100+i), faulty)
	}
	if err := Batch(sd, sc, batch, Config{Depth: 4, Workers: 3}); err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if !batch[i].Equal(want[i]) {
			t.Fatalf("batch-decoded stripe %d differs from the original", i)
		}
	}
}

// TestBatchGeometryMismatch: a stripe that does not match the code
// geometry is reported with its index, not executed.
func TestBatchGeometryMismatch(t *testing.T) {
	sd := testSD(t)
	good, err := stripe.New(sd.NumStrips(), sd.NumRows(), 64)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := stripe.New(sd.NumStrips()+1, sd.NumRows(), 64)
	if err != nil {
		t.Fatal(err)
	}
	err = Batch(sd, codes.EncodingScenario(sd), []*stripe.Stripe{good, bad}, Config{})
	if err == nil || !strings.Contains(err.Error(), "stripe 1") {
		t.Fatalf("got %v, want a stripe-1 geometry error", err)
	}
}

// TestConcurrentEngines runs several engines over the shared worker
// pool at once — the -race check for the concurrency layer. Each
// goroutine streams several times in turn, so slabs pass between the
// goroutines' engines.
func TestConcurrentEngines(t *testing.T) {
	sd := testSD(t)
	const sector = 128
	data := payload(len(codes.DataPositions(sd)) * sector * 6)
	want := encodeSerialImages(t, sd, data, sector)

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for call := 0; call < 4; call++ {
				var buf bytes.Buffer
				if _, err := EncodeStream(sd, &buf, bytes.NewReader(data), sector, Config{Depth: 3, Workers: 2}); err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(buf.Bytes(), want) {
					errs[g] = fmt.Errorf("goroutine %d, call %d: stream output differs", g, call)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
