package pipeline

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppm/internal/codes"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// Regression tests for the pipeline scaling defects: the
// unsynchronized double-Close, the Workers-capped-by-Depth defaulting,
// DecodeStream decoding past the requested payload, and a shard launch
// that started fewer compute shards than Workers.

// TestConcurrentClose: Close is documented idempotent and is commonly
// deferred from more than one goroutine; racing Closes must not
// double-close the stage channels (a panic before the sync.Once fix).
// Run under -race this also pins the memory ordering.
func TestConcurrentClose(t *testing.T) {
	sd := testSD(t)
	for round := 0; round < 4; round++ {
		e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: 2})
		if err != nil {
			t.Fatal(err)
		}
		// One short run so the stage goroutines are demonstrably live.
		if _, err := e.Run(&constSource{count: 3}, &recordSink{}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				e.Close()
			}()
		}
		close(start)
		wg.Wait()
		if _, err := e.Run(&constSource{count: 1}, &recordSink{}); err == nil {
			t.Fatal("Run on a closed engine succeeded")
		}
	}
}

// TestWorkersDecoupledFromDepth: queue depth and compute parallelism
// are distinct knobs. Defaulted Workers must follow the core count —
// not min(Depth, NumCPU), which silently capped compute shards at
// DefaultDepth on many-core hosts — and a defaulted Depth must still
// cover the shards.
func TestWorkersDecoupledFromDepth(t *testing.T) {
	sd := testSD(t)
	ncpu := runtime.NumCPU()

	cases := []struct {
		name        string
		cfg         Config
		wantWorkers int
		wantDepth   int
	}{
		// The defaulted config: workers from the host, depth covering them.
		{"all-default", Config{}, ncpu, maxInt(DefaultDepth, ncpu)},
		// A shallow explicit queue must not throttle the compute shards.
		{"depth-2", Config{Depth: 2}, ncpu, 2},
		// An explicit worker count below DefaultDepth keeps the default queue.
		{"workers-explicit", Config{Workers: 3}, 3, maxInt(DefaultDepth, 3)},
		// Wide explicit workers pull the defaulted depth up with them.
		{"workers-wide", Config{Workers: 2 * DefaultDepth}, 2 * DefaultDepth, 2 * DefaultDepth},
		// Depth 1 computes on the Run goroutine: no shards to size.
		{"depth-1", Config{Depth: 1, Workers: 3}, 1, 1},
	}
	for _, tc := range cases {
		e, err := New(sd, codes.EncodingScenario(sd), 64, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := e.Config()
		e.Close()
		if got.Workers != tc.wantWorkers {
			t.Errorf("%s: Workers=%d, want %d", tc.name, got.Workers, tc.wantWorkers)
		}
		if got.Depth != tc.wantDepth {
			t.Errorf("%s: Depth=%d, want %d", tc.name, got.Depth, tc.wantDepth)
		}
	}
}

// TestEngineStartsEveryShard: an engine runs Workers compute shards at
// once even while every kernel pool worker is busy. Launching the
// shards through one kernel.Workers.Run ran the first shard inline when
// no pool worker was free, and that shard returns only at Close, so
// the rest never started. Two stripes meet at a barrier inside compute;
// with a single shard the first waits out the timeout alone.
func TestEngineStartsEveryShard(t *testing.T) {
	release := holdKernelPool(t)
	defer release()

	sd := testSD(t)
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var inflight atomic.Int32
	met := make(chan struct{})
	var once sync.Once
	e.testDelay = func(int) {
		if inflight.Add(1) == 2 {
			once.Do(func() { close(met) })
		}
		defer inflight.Add(-1)
		select {
		case <-met:
		case <-time.After(2 * time.Second):
		}
	}
	if _, err := e.Run(&constSource{count: 2}, &recordSink{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-met:
	default:
		t.Fatal("an engine with Workers: 2 never ran two computes at once")
	}
}

// holdKernelPool blocks every kernel.DefaultWorkers worker in a task
// until the returned release is called, which also waits for the
// holding Run to return. A Run of NumCPU+1 tasks hands NumCPU of them to
// parked workers and runs the last inline, so all NumCPU+1 starting
// means every worker is held; a worker that was not yet parked makes a
// task run inline early, and the attempt is released and repeated.
func holdKernelPool(t *testing.T) (release func()) {
	t.Helper()
	pool := kernel.DefaultWorkers()
	want := int32(runtime.NumCPU() + 1)
	for attempt := 0; attempt < 5; attempt++ {
		var held atomic.Int32
		gate := make(chan struct{})
		returned := make(chan error, 1)
		go func() {
			returned <- pool.Run(int(want), func(int) error {
				held.Add(1)
				<-gate
				return nil
			})
		}()
		deadline := time.Now().Add(200 * time.Millisecond)
		for held.Load() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		release := func() {
			close(gate)
			if err := <-returned; err != nil {
				t.Errorf("holding Run: %v", err)
			}
		}
		if held.Load() == want {
			return release
		}
		release()
	}
	t.Fatal("could not hold every kernel pool worker")
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// countingReader hands out stripe images and records how many the
// engine actually consumed.
type countingReader struct {
	images []byte
	off    int
	reads  int // stripe images fully consumed
	stripe int
}

func (r *countingReader) Read(p []byte) (int, error) {
	if r.off >= len(r.images) {
		return 0, io.EOF
	}
	n := copy(p, r.images[r.off:])
	before := r.off / r.stripe
	r.off += n
	r.reads += r.off/r.stripe - before
	return n, nil
}

// TestDecodeStreamEarlyStop: a short payload over a long stream must
// decode only ⌈payload/stripe⌉ stripes — intake stops once the payload
// is satisfied instead of filling, decoding and draining stripes whose
// output is fully trimmed.
func TestDecodeStreamEarlyStop(t *testing.T) {
	sd := testSD(t)
	const sector = 128
	const totalStripes = 64
	perStripe := len(codes.DataPositions(sd)) * sector
	data := payload(perStripe * totalStripes)
	images := encodeSerialImages(t, sd, data, sector)
	stripeBytes := sd.NumStrips() * sd.NumRows() * sector

	// 2.5 stripes of payload over a 64-stripe stream.
	want := perStripe*2 + perStripe/2
	const wantStripes = 3 // ceil(2.5)

	const depth = 2
	src := &countingReader{images: images, stripe: stripeBytes}
	var out bytes.Buffer
	res, err := DecodeStream(sd, &out, src, codes.Scenario{}, int64(want), sector, Config{Depth: depth, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stripes != wantStripes {
		t.Errorf("decoded %d stripes for a %d-stripe payload over a %d-stripe stream", res.Stripes, wantStripes, totalStripes)
	}
	if !bytes.Equal(out.Bytes(), data[:want]) {
		t.Fatal("early-stopped decode produced the wrong payload")
	}
	// Intake may legitimately run Depth stripes ahead of the drain
	// stage, but no further: the old behaviour read all 64.
	if maxReads := wantStripes + depth + 1; src.reads > maxReads {
		t.Errorf("engine consumed %d stripe images, want <= %d", src.reads, maxReads)
	}

	// The Serial loop honours Stop identically.
	src2 := &countingReader{images: images, stripe: stripeBytes}
	var out2 bytes.Buffer
	ds := &dataSink{w: &out2, data: codes.DataPositions(sd), remaining: int64(want)}
	all := make([]int, codes.TotalSectors(sd))
	for i := range all {
		all[i] = i
	}
	n, err := Serial(sd, codes.Scenario{}, sector, Config{}, &readerSource{in: streamReader{r: src2}, data: all, image: true}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if n != wantStripes {
		t.Errorf("serial loop decoded %d stripes, want %d", n, wantStripes)
	}
	if !bytes.Equal(out2.Bytes(), data[:want]) {
		t.Fatal("serial early-stopped decode produced the wrong payload")
	}
}

// TestDecodeStreamEarlyStopWithRepair: early stop composes with a real
// repair scenario — the decoded prefix is still byte-exact — and leaves
// the reader right after the images decoded, whether it pushed them
// (bytes.Reader) or the shards read them ahead with ReadAt
// (io.SectionReader).
func TestDecodeStreamEarlyStopWithRepair(t *testing.T) {
	sd := testSD(t)
	const sector = 128
	const totalStripes = 16
	perStripe := len(codes.DataPositions(sd)) * sector
	data := payload(perStripe * totalStripes)
	images := encodeSerialImages(t, sd, data, sector)

	var faulty []int
	for row := 0; row < sd.NumRows(); row++ {
		for _, d := range []int{1, 4} {
			faulty = append(faulty, row*sd.NumStrips()+d)
		}
	}
	stripeBytes := sd.NumStrips() * sd.NumRows() * sector
	for off := 0; off < len(images); off += stripeBytes {
		for _, f := range faulty {
			for i := off + f*sector; i < off+(f+1)*sector; i++ {
				images[i] ^= 0xA5
			}
		}
	}
	sc, err := codes.NewScenario(sd, faulty)
	if err != nil {
		t.Fatal(err)
	}

	want := perStripe*3 + 17 // a ragged 4-stripe payload
	for _, r := range []io.ReadSeeker{
		bytes.NewReader(images),
		io.NewSectionReader(bytes.NewReader(images), 0, int64(len(images))),
	} {
		var out bytes.Buffer
		res, err := DecodeStream(sd, &out, r, sc, int64(want), sector, Config{Depth: 4})
		if err != nil {
			t.Fatal(err)
		}
		if pos, _ := r.Seek(0, io.SeekCurrent); pos != int64(4*stripeBytes) {
			t.Errorf("%T: DecodeStream left the reader at %d, want %d: after the 4 images decoded", r, pos, 4*stripeBytes)
		}
		if res.Stripes != 4 {
			t.Errorf("%T: decoded %d stripes, want 4", r, res.Stripes)
		}
		if !bytes.Equal(out.Bytes(), data[:want]) {
			t.Fatalf("%T: early-stopped repair decode produced the wrong payload", r)
		}
	}
}

// TestStopFromCustomSink: the Stop sentinel is part of the Sink
// contract, not a dataSink private: any sink can end a stream early
// without an error, and the stopping stripe counts as drained.
func TestStopFromCustomSink(t *testing.T) {
	atFills(t, 4, testStopFromCustomSink)
}

func testStopFromCustomSink(t *testing.T, depth int, fill func(Source) Source) {
	sd := testSD(t)
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{Depth: depth, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	stopAt := 5
	sink := &stopSink{at: stopAt}
	n, err := e.Run(fill(&constSource{count: 1 << 30}), sink)
	if err != nil {
		t.Fatalf("Stop surfaced as an error: %v", err)
	}
	if n != stopAt+1 {
		t.Fatalf("drained %d stripes, want %d", n, stopAt+1)
	}
	// The engine is reusable after an early stop.
	rec := &recordSink{}
	n, err = e.Run(fill(&constSource{count: 4}), rec)
	if err != nil || n != 4 {
		t.Fatalf("post-stop run: n=%d err=%v", n, err)
	}
}

type stopSink struct{ at, n int }

func (s *stopSink) Drain(idx int, _ *stripe.Stripe) error {
	s.n++
	if idx >= s.at {
		return Stop
	}
	return nil
}
