package fault

import (
	"context"
	"math/rand"
	"time"
)

// Policy is a bounded-retry policy: up to MaxAttempts tries, jittered
// exponential backoff between them, and an optional per-attempt
// deadline that abandons a hung attempt instead of waiting forever.
type Policy struct {
	// MaxAttempts caps the total tries (first attempt included);
	// <= 0 selects 1 (no retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it up to MaxDelay. <= 0 selects 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; <= 0 selects 1s.
	MaxDelay time.Duration
	// OpTimeout bounds one attempt; 0 means attempts may block
	// indefinitely. An attempt that outlives its deadline is abandoned
	// (its goroutine is left to finish on its own) and counted as a
	// transient ErrOpTimeout failure.
	OpTimeout time.Duration
	// Jitter scales the random spread applied to each backoff:
	// the sleep is d/2 + rand(d/2) at Jitter 1 (the default when
	// negative), exactly d at 0.
	Jitter float64
	// Seed drives the jitter RNG; retries are deterministic per policy
	// value, so a chaos run's timing is replayable.
	Seed int64
}

// DefaultPolicy is a sane interactive default: 4 attempts, 2ms backoff
// doubling to 100ms, 30s per-attempt deadline.
func DefaultPolicy() Policy {
	return Policy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 100 * time.Millisecond, OpTimeout: 30 * time.Second, Jitter: 1}
}

func (p Policy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 1
	}
	return p.MaxAttempts
}

func (p Policy) base() time.Duration {
	if p.BaseDelay <= 0 {
		return time.Millisecond
	}
	return p.BaseDelay
}

func (p Policy) max() time.Duration {
	if p.MaxDelay <= 0 {
		return time.Second
	}
	return p.MaxDelay
}

// backoff returns the jittered sleep before retry number retry (0 is
// the first retry).
func (p Policy) backoff(retry int, rng *rand.Rand) time.Duration {
	d := p.base() << uint(retry)
	if d > p.max() || d <= 0 {
		d = p.max()
	}
	j := p.Jitter
	if j < 0 {
		j = 1
	}
	if j == 0 || rng == nil {
		return d
	}
	spread := time.Duration(float64(d) / 2 * j)
	if spread <= 0 {
		return d
	}
	return d - spread + time.Duration(rng.Int63n(int64(spread)+1))
}

// Do runs op under the policy: transient failures (per IsTransient)
// are retried with jittered exponential backoff until the attempt
// budget is spent; permanent failures and context cancellation return
// immediately. With OpTimeout set, each attempt runs on its own
// goroutine and is abandoned at the deadline — op must therefore be
// safe to abandon (a later attempt may run while an abandoned one is
// still blocked; use DoVal to hand results over safely instead of
// writing through shared state). The returned error is the last
// failure wrapped in *OpError with the attempt count.
func Do(ctx context.Context, name string, p Policy, op func() error) error {
	_, _, err := DoVal(ctx, name, p, func() (struct{}, error) { return struct{}{}, op() })
	return err
}

// DoVal is Do for ops that produce a value. The value crosses from the
// attempt goroutine on the completion channel, so an abandoned (hung)
// attempt's result is simply discarded — attempts should build their
// result in attempt-private storage rather than mutate shared buffers.
// Returns the successful value, the number of attempts spent, and the
// final error (nil on success).
func DoVal[T any](ctx context.Context, name string, p Policy, op func() (T, error)) (T, int, error) {
	var zero T
	var rng *rand.Rand
	attempts := p.attempts()
	var last error
	for i := 0; i < attempts; i++ {
		if ctx != nil && ctx.Err() != nil {
			return zero, i, &OpError{Op: name, Attempts: i, Err: ctx.Err()}
		}
		v, err := runOne(ctx, p, op)
		if err == nil {
			return v, i + 1, nil
		}
		last = err
		if !IsTransient(err) {
			return zero, i + 1, &OpError{Op: name, Attempts: i + 1, Err: err}
		}
		if i == attempts-1 {
			break
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(p.Seed ^ 0x1e3779b97f4a7c15))
		}
		if !sleepCtx(ctx, p.backoff(i, rng)) {
			return zero, i + 1, &OpError{Op: name, Attempts: i + 1, Err: ctx.Err()}
		}
	}
	return zero, attempts, &OpError{Op: name, Attempts: attempts, Err: last}
}

// runOne executes a single attempt, under the per-attempt deadline
// when one is configured.
func runOne[T any](ctx context.Context, p Policy, op func() (T, error)) (T, error) {
	if p.OpTimeout <= 0 {
		return op()
	}
	type result struct {
		v   T
		err error
	}
	done := make(chan result, 1)
	go func() {
		v, err := op()
		done <- result{v, err}
	}()
	t := time.NewTimer(p.OpTimeout)
	defer t.Stop()
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	var zero T
	select {
	case r := <-done:
		return r.v, r.err
	case <-t.C:
		return zero, ErrOpTimeout
	case <-cancel:
		return zero, ctx.Err()
	}
}
