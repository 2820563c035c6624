package pipeline

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"ppm/internal/codes"
	"ppm/internal/stripe"
)

// TestPoolConcurrentStreams drives more concurrent encode streams than
// the pool has engines and checks every stream's output byte-for-byte
// against the serial loop, for an explicitly staged pool and for the
// default one, which runs Depth 1 wherever its 3 engines cover the
// cores. Under -race this also pins the checkout protocol.
func TestPoolConcurrentStreams(t *testing.T) {
	t.Run("staged", func(t *testing.T) { testPoolConcurrentStreams(t, Config{Depth: 2, Workers: 1}) })
	t.Run("default", func(t *testing.T) { testPoolConcurrentStreams(t, Config{}) })
}

func testPoolConcurrentStreams(t *testing.T, cfg Config) {
	sd := testSD(t)
	const sector = 128
	const streams = 8
	perStripe := len(codes.DataPositions(sd)) * sector

	// Distinct payloads (ragged tails included) and their serial images,
	// prepared before the goroutines launch so helpers may t.Fatal.
	datas := make([][]byte, streams)
	wants := make([][]byte, streams)
	for i := range datas {
		data := make([]byte, perStripe*3+i*37)
		rand.New(rand.NewSource(int64(100 + i))).Read(data)
		datas[i] = data
		wants[i] = encodeSerialImages(t, sd, data, sector)
	}

	p, err := NewPool(sd, codes.EncodingScenario(sd), sector, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Size() != 3 {
		t.Fatalf("pool size %d, want 3", p.Size())
	}

	var wg sync.WaitGroup
	outs := make([]bytes.Buffer, streams)
	errs := make([]error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := &readerSource{r: bytes.NewReader(datas[i]), data: codes.DataPositions(sd)}
			_, errs[i] = p.Run(src, &imageSink{w: &outs[i]})
		}(i)
	}
	wg.Wait()
	for i := 0; i < streams; i++ {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i].Bytes(), wants[i]) {
			t.Fatalf("stream %d: pool output differs from the serial loop's", i)
		}
	}

	stats := p.StageStats()
	var wantStripes int64
	for i := range datas {
		wantStripes += int64((len(datas[i]) + perStripe - 1) / perStripe)
	}
	if stats.Stripes != wantStripes {
		t.Errorf("pool drained %d stripes, want %d", stats.Stripes, wantStripes)
	}
}

// TestPoolWorkerBudget: with Workers unset the per-engine shards divide
// the host budget across the pool instead of each engine claiming the
// full core count, and a pool with an engine per core (Depth and
// Workers unset) runs its engines at Depth 1. An explicit Depth or
// Workers keeps the staged engine. Size 0 selects max(2, NumCPU)
// engines.
func TestPoolWorkerBudget(t *testing.T) {
	sd := testSD(t)
	ncpu := runtime.NumCPU()
	wide := maxInt(2, ncpu) // one engine per core
	// A 2-engine pool covers the cores only on a host with at most 2.
	depth2 := maxInt(DefaultDepth, maxInt(1, ncpu/2))
	if 2 >= ncpu {
		depth2 = 1
	}
	cases := []struct {
		name        string
		size        int
		cfg         Config
		wantWorkers int
		wantDepth   int
	}{
		{"size-2", 2, Config{}, maxInt(1, ncpu/2), depth2},
		{"engine-per-core", wide, Config{}, 1, 1},
		{"size-0", 0, Config{}, 1, 1}, // defaults to one engine per core
		{"depth-explicit", wide, Config{Depth: 3}, 1, 3},
		{"workers-explicit", 2, Config{Workers: 3}, 3, maxInt(DefaultDepth, 3)},
		{"workers-explicit-per-core", wide, Config{Workers: 1}, 1, DefaultDepth},
	}
	for _, tc := range cases {
		p, err := NewPool(sd, codes.EncodingScenario(sd), 64, tc.size, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, size := p.Config(), p.Size()
		p.Close()
		wantSize := tc.size
		if wantSize <= 0 {
			wantSize = wide
		}
		if size != wantSize {
			t.Errorf("%s: pool Size=%d, want %d", tc.name, size, wantSize)
		}
		if got.Workers != tc.wantWorkers {
			t.Errorf("%s: pool engine Workers=%d, want %d", tc.name, got.Workers, tc.wantWorkers)
		}
		if got.Depth != tc.wantDepth {
			t.Errorf("%s: pool engine Depth=%d, want %d", tc.name, got.Depth, tc.wantDepth)
		}
	}
}

// TestPoolAdmission: when every engine is busy, RunContext waits under
// the caller's context and honours cancellation without leaking an
// engine checkout.
func TestPoolAdmission(t *testing.T) {
	sd := testSD(t)
	p, err := NewPool(sd, codes.EncodingScenario(sd), 64, 1, Config{Depth: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := &gatedSource{count: 2, started: started, gate: gate}
		if _, err := p.Run(src, &recordSink{}); err != nil {
			t.Errorf("gated stream: %v", err)
		}
	}()
	<-started // the single engine is now checked out and mid-stream

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.RunContext(ctx, &constSource{count: 1}, &recordSink{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("busy-pool RunContext err = %v, want DeadlineExceeded", err)
	}

	close(gate)
	wg.Wait()

	// The engine came back: the pool serves again.
	if _, err := p.Run(&constSource{count: 1}, &recordSink{}); err != nil {
		t.Fatalf("post-admission run: %v", err)
	}
}

// gatedSource signals started on the first Next and then blocks until
// gate closes.
type gatedSource struct {
	count   int
	started chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (s *gatedSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	s.once.Do(func() { close(s.started) })
	<-s.gate
	if idx >= s.count {
		return nil, nil
	}
	return slab, nil
}

// TestPoolClose: Close is idempotent and a closed pool rejects new
// streams instead of hanging.
func TestPoolClose(t *testing.T) {
	sd := testSD(t)
	p, err := NewPool(sd, codes.EncodingScenario(sd), 64, 2, Config{Depth: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close()
	if _, err := p.Run(&constSource{count: 1}, &recordSink{}); !errors.Is(err, errPoolClosed) {
		t.Fatalf("run on closed pool err = %v, want errPoolClosed", err)
	}
}

func retryBatch(t *testing.T, sd *codes.SD, stripes, sector int) []*stripe.Stripe {
	t.Helper()
	batch := make([]*stripe.Stripe, stripes)
	for i := range batch {
		st, err := stripe.New(sd.NumStrips(), sd.NumRows(), sector)
		if err != nil {
			t.Fatal(err)
		}
		st.FillDataRandom(int64(i), codes.DataPositions(sd))
		batch[i] = st
	}
	return batch
}

// TestPoolReplacesPoisonedEngine pins the self-healing checkout: a
// poisoned engine coming off the pool's free list is closed and replaced
// with a fresh build, so the stream that drew the poisoned slot still
// succeeds and the pool keeps its size.
func TestPoolReplacesPoisonedEngine(t *testing.T) {
	sd := testSD(t)
	p, err := NewPool(sd, codes.EncodingScenario(sd), 0, 2, Config{Depth: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Poison every engine while checked in.
	p.mu.Lock()
	victims := append([]*Engine(nil), p.all...)
	p.mu.Unlock()
	for _, e := range victims {
		e.shardErr.Store(errors.New("injected shard death"))
	}

	batch := retryBatch(t, sd, 4, 64)
	for i := 0; i < 2*p.Size(); i++ {
		if _, err := p.Run(SliceSource(batch), NopSink{}); err != nil {
			t.Fatalf("run %d through self-healing pool: %v", i, err)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.all) != 2 {
		t.Fatalf("pool size drifted to %d", len(p.all))
	}
	for i, e := range p.all {
		for _, v := range victims {
			if e == v {
				t.Fatalf("engine %d is still a poisoned victim", i)
			}
		}
		if !e.Healthy() {
			t.Fatalf("engine %d unhealthy after replacement", i)
		}
	}
}

// TestPoolCheckoutRacesPoisoning is the -race regression for the
// checkout/poison window: engines are poisoned concurrently with
// checkouts, and every RunContext must either succeed (healthy engine)
// or fail with ErrEnginePoisoned (poisoned between checkout and run) —
// never hang or hand out a dead engine silently.
func TestPoolCheckoutRacesPoisoning(t *testing.T) {
	sd := testSD(t)
	p, err := NewPool(sd, codes.EncodingScenario(sd), 0, 2, Config{Depth: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// One batch per runner: SliceSource hands over caller-owned
	// stripes, so concurrent Runs must not share them — two checked-out
	// engines encoding the same stripe is a real data race.
	batch := retryBatch(t, sd, 2, 64)
	batches := make([][]*stripe.Stripe, 4)
	for g := range batches {
		batches[g] = retryBatch(t, sd, 2, 64)
	}
	stop := make(chan struct{})
	var poisoner sync.WaitGroup
	poisoner.Add(1)
	go func() {
		defer poisoner.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p.mu.Lock()
			e := p.all[i%len(p.all)]
			p.mu.Unlock()
			e.shardErr.Store(errors.New("storm"))
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(batch []*stripe.Stripe) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, err := p.Run(SliceSource(batch), NopSink{})
				if err != nil && !errors.Is(err, ErrEnginePoisoned) {
					t.Errorf("unexpected checkout error under poisoning storm: %v", err)
					return
				}
			}
		}(batches[g])
	}
	wg.Wait()
	close(stop)
	poisoner.Wait()

	// The storm is over: the pool must recover within a bounded number
	// of checkouts (each one replaces at most one poisoned engine).
	var lastErr error
	for i := 0; i <= p.Size(); i++ {
		if _, lastErr = p.Run(SliceSource(batch), NopSink{}); lastErr == nil {
			return
		}
	}
	t.Fatalf("pool did not recover after the poisoning storm: %v", lastErr)
}
