package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppm/internal/codes"
	"ppm/internal/stripe"
)

// flakyErr is a transient failure (structural Transient() contract).
type flakyErr struct{ msg string }

func (e *flakyErr) Error() string   { return e.msg }
func (e *flakyErr) Transient() bool { return true }

// flakySource fails stripe idx transiently `fail[idx]` times before
// succeeding, counting every Next call.
type flakySource struct {
	batch []*stripe.Stripe
	fail  map[int]int
	calls atomic.Int64
}

func (s *flakySource) Next(idx int, _ *stripe.Stripe) (*stripe.Stripe, error) {
	s.calls.Add(1)
	if idx >= len(s.batch) {
		return nil, nil
	}
	if s.fail[idx] > 0 {
		s.fail[idx]--
		return nil, &flakyErr{msg: fmt.Sprintf("flaky read, stripe %d", idx)}
	}
	return s.batch[idx], nil
}

// flakySink fails stripe idx transiently fail[idx] times, recording the
// drained order.
type flakySink struct {
	fail  map[int]int
	order []int
}

func (k *flakySink) Drain(idx int, _ *stripe.Stripe) error {
	if k.fail[idx] > 0 {
		k.fail[idx]--
		return &flakyErr{msg: fmt.Sprintf("flaky write, stripe %d", idx)}
	}
	k.order = append(k.order, idx)
	return nil
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

// TestRetryTransientFillAndDrain pins the retry contract: transient
// Source/Sink failures are retried away invisibly (the stream completes,
// in order) and the retries surface in StageStats.
func TestRetryTransientFillAndDrain(t *testing.T) {
	atDepths(t, 4, testRetryTransientFillAndDrain)
}

func testRetryTransientFillAndDrain(t *testing.T, depth int) {
	sd := testSD(t)
	batch := retryBatch(t, sd, 6, 64)
	src := &flakySource{batch: batch, fail: map[int]int{1: 2, 4: 1}}
	snk := &flakySink{fail: map[int]int{2: 1}}

	e, err := New(sd, codes.EncodingScenario(sd), 0, Config{
		Depth: depth, Workers: 2,
		Retry: RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	n, err := e.Run(src, snk)
	if err != nil {
		t.Fatalf("run with transient faults: %v", err)
	}
	if n != len(batch) {
		t.Fatalf("drained %d stripes, want %d", n, len(batch))
	}
	for i, idx := range snk.order {
		if idx != i {
			t.Fatalf("out-of-order drain: position %d got stripe %d", i, idx)
		}
	}
	st := e.StageStats()
	if st.FillRetries != 3 {
		t.Errorf("FillRetries = %d, want 3", st.FillRetries)
	}
	if st.DrainRetries != 1 {
		t.Errorf("DrainRetries = %d, want 1", st.DrainRetries)
	}
}

// permErr is a permanent failure: Transient() false.
type permErr struct{}

func (permErr) Error() string   { return "disk gone" }
func (permErr) Transient() bool { return false }

type permSource struct {
	calls atomic.Int64
}

func (s *permSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	s.calls.Add(1)
	return nil, permErr{}
}

// TestRetryPermanentFailsFast pins that a permanent error spends no
// retry budget: exactly one attempt, error surfaced.
func TestRetryPermanentFailsFast(t *testing.T) {
	sd := testSD(t)
	src := &permSource{}
	e, err := New(sd, codes.EncodingScenario(sd), 64, Config{
		Depth: 2, Retry: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(src, NopSink{}); err == nil {
		t.Fatal("want permanent fill error, got nil")
	} else if !errors.Is(err, permErr{}) {
		t.Fatalf("error %v does not wrap the permanent failure", err)
	}
	if got := src.calls.Load(); got != 1 {
		t.Errorf("permanent error retried: %d Next calls, want 1", got)
	}
	if st := e.StageStats(); st.FillRetries != 0 {
		t.Errorf("FillRetries = %d, want 0", st.FillRetries)
	}
}

// TestRetryBudgetExhausted pins that a persistent transient failure
// stops after MaxAttempts and reports the attempt count.
func TestRetryBudgetExhausted(t *testing.T) {
	sd := testSD(t)
	src := &flakySource{batch: retryBatch(t, sd, 2, 64), fail: map[int]int{0: 100}}
	e, err := New(sd, codes.EncodingScenario(sd), 0, Config{
		Depth: 2, Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	_, err = e.Run(src, NopSink{})
	if err == nil {
		t.Fatal("want error after retry budget, got nil")
	}
	if want := "failed after 3 attempts"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not report %q", err, want)
	}
	if got := src.calls.Load(); got != 3 {
		t.Errorf("stripe 0 tried %d times, want 3", got)
	}
}

// hangSource blocks forever on stripe `at` until release is closed.
type hangSource struct {
	batch   []*stripe.Stripe
	at      int
	release chan struct{}
	hung    atomic.Bool
}

func (s *hangSource) Next(idx int, _ *stripe.Stripe) (*stripe.Stripe, error) {
	if idx == s.at {
		s.hung.Store(true)
		<-s.release
		return nil, &flakyErr{msg: "woken after abandonment"}
	}
	if idx >= len(s.batch) {
		return nil, nil
	}
	return s.batch[idx], nil
}

// TestHungSourceAbandonedAtDeadline pins the OpTimeout contract: a
// Source.Next that never returns fails the run within the deadline (not
// forever), with ErrOpTimeout, and the abandoned call is left to finish
// on its own.
func TestHungSourceAbandonedAtDeadline(t *testing.T) {
	atDepths(t, 2, testHungSourceAbandonedAtDeadline)
}

func testHungSourceAbandonedAtDeadline(t *testing.T, depth int) {
	sd := testSD(t)
	src := &hangSource{batch: retryBatch(t, sd, 6, 64), at: 2, release: make(chan struct{})}
	defer close(src.release) // let the abandoned runner exit

	e, err := New(sd, codes.EncodingScenario(sd), 0, Config{
		Depth: depth, Workers: 1,
		Retry: RetryPolicy{MaxAttempts: 2, OpTimeout: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	start := time.Now()
	_, err = e.Run(src, NopSink{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("want timeout error, got nil")
	}
	if !errors.Is(err, ErrOpTimeout) {
		t.Fatalf("error %v does not wrap ErrOpTimeout", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("hung source stalled the run for %v; the deadline should bound it", elapsed)
	}
	if !src.hung.Load() {
		t.Fatal("test never reached the hanging stripe")
	}
}

// TestRetryRunCancellation pins that context cancellation cuts a retry
// loop short (during backoff) and surfaces ctx.Err.
func TestRetryRunCancellation(t *testing.T) {
	atDepths(t, 2, testRetryRunCancellation)
}

func testRetryRunCancellation(t *testing.T, depth int) {
	sd := testSD(t)
	src := &flakySource{batch: retryBatch(t, sd, 2, 64), fail: map[int]int{0: 1 << 30}}
	e, err := New(sd, codes.EncodingScenario(sd), 0, Config{
		Depth: depth,
		Retry: RetryPolicy{MaxAttempts: 1 << 20, BaseDelay: time.Hour, MaxDelay: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = e.RunContext(ctx, src, NopSink{})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to cut the backoff short", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRetryConfiguredAllocationFree extends the steady-state contract
// to the guarded path: with a retry policy (including a per-op deadline)
// configured but no fault firing, the pipeline still performs zero heap
// allocations per run — the guard runners, result channels and timers
// are fixed at New.
func TestRetryConfiguredAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool deliberately drops items; alloc counts are meaningless")
	}
	sd, err := codes.NewSD(8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	batch := retryBatch(t, sd, 8, 1024)
	atDepths(t, 4, func(t *testing.T, depth int) {
		e, err := New(sd, codes.EncodingScenario(sd), 0, Config{
			Depth: depth, Workers: 2,
			Retry: RetryPolicy{MaxAttempts: 4, OpTimeout: 30 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var src Source = SliceSource(batch)
		if _, err := e.Run(src, NopSink{}); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(10, func() {
			if _, err := e.Run(src, NopSink{}); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("guarded steady state allocates %.1f/op, want 0", avg)
		}
	})
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
