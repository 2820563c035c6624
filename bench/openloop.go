package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// The load generator shared by degraded-io and serve. Requests arrive on a
// seeded exponential schedule (an open loop) or back to back (a closed
// loop, for the capacity phase). A fixed set of service goroutines each
// claims the next request, waits for its due time and serves it; an
// open-loop request's latency runs from its due time, so a stall is
// charged to every request it delays. All per-request buffers are
// allocated before the phase starts.

// epoch is the process-wide time origin of nowNs.
var epoch = time.Now()

// nowNs is monotonic nanoseconds since the process started.
func nowNs() int64 { return int64(time.Since(epoch)) }

// schedule returns seeded exponential arrival offsets in nanoseconds, at
// rate arrivals per second, over d.
func schedule(rng *rand.Rand, rate float64, d time.Duration) []int64 {
	out := make([]int64, 0, int(rate*d.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate * 1e9
		if t >= float64(d) {
			return out
		}
		out = append(out, int64(t))
	}
}

// spinBelow is the gap under which a waiting goroutine spins instead
// of sleeping: time.Sleep overshoots by about a millisecond on small
// sleeps, which would swamp microsecond-scale requests.
const spinBelow = 1500 * time.Microsecond

// yieldEvery spaces the yields of a spinning goroutine. Yielding lets
// the pipeline's goroutines run, but every yield takes the scheduler's
// global lock, and a vCPU the host deschedules while holding it stalls
// the other service goroutine too: yielding on every spin put the
// degraded-io p99 in milliseconds.
const yieldEvery = 50 * time.Microsecond

// maxLate bounds how late an open-loop request may start; a request
// claimed later than this is dropped and counts as missing every
// latency limit, so an overloaded step cannot stretch the run. It fits
// the uint32 nanoseconds a served request records.
const maxLate = 4 * time.Second

// servedReq is one open-loop request a service goroutine ran: its index,
// how long after its due time it started, and how long it ran, in ns.
type servedReq struct {
	i, wait, run uint32
}

// phase is the outcome of driving one list of requests.
type phase struct {
	due      []int64     // due offsets; nil for a closed loop
	log      []servedReq // open loop: the served requests
	done     *meter      // closed loop: completions per window
	n        int         // requests claimed
	length   int64       // schedule window (open) or time limit (closed), ns
	failed   int64
	dropped  int64
	late     int64 // open loop: latest start after due
	firstErr error
}

// requests is what drive runs.
type requests interface {
	// key returns request i's lock key (-1 for none) and whether it
	// needs the key exclusively. Requests with the same key keep claim
	// order wherever one of them is exclusive: shared requests run
	// together, an exclusive one runs alone after every earlier one. A
	// request that has to wait is handed to the goroutine that finishes
	// the request blocking it, and the claiming goroutine moves on to
	// the next request instead of waiting.
	key(i int) (k int, exclusive bool)
	// serve runs request i on worker w.
	serve(w, i int) error
}

// keyState is one held key: the requests running under it and the ones
// waiting, in claim order.
type keyState struct {
	shared    int
	exclusive bool
	waiting   []int
}

// admit reports whether a request may start under the key now, and
// takes the key if so.
func (ks *keyState) admit(exclusive bool) bool {
	switch {
	case ks.exclusive:
		return false
	case exclusive && ks.shared > 0:
		return false
	case exclusive:
		ks.exclusive = true
	default:
		ks.shared++
	}
	return true
}

// worker is what one service goroutine records. Each goroutine writes
// only its own, and the padding keeps two of them off one cache line:
// results written to shared per-request arrays cost a cross-CPU
// transfer per request, and on a 2-vCPU VM that transfer takes hundreds
// of nanoseconds and varies with where the host places the vCPUs.
type worker struct {
	log     []servedReq
	done    *meter
	lastEnd int64
	late    int64
	failed  int64
	dropped int64
	err     error
	_       [64]byte
}

// drive serves requests 0..n-1 with workers goroutines. With due set it
// is an open loop over the whole schedule; with due nil it is a closed
// loop that stops claiming after limit.
func drive(workers, n int, due []int64, limit time.Duration, r requests) *phase {
	p := &phase{due: due, length: int64(limit)}
	ws := make([]worker, workers)
	for w := range ws {
		if due != nil {
			ws[w].log = make([]servedReq, 0, n)
		} else {
			ws[w].done = newMeter(limit)
		}
	}
	var (
		mu   sync.Mutex // guards next and keys
		next int
		keys = map[int]*keyState{}
		wg   sync.WaitGroup
	)
	t0 := nowNs()
	// advance ends request prev (-1 for none) and returns the request this
	// goroutine runs next: one that waited behind prev's key, else the
	// next claimable one. A claimed request that must wait behind its key
	// is queued on it. Key states are kept for the phase, so a hot key
	// costs no allocation per request.
	advance := func(prev int) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if prev >= 0 {
			if k, x := r.key(prev); k >= 0 {
				ks := keys[k]
				if x {
					ks.exclusive = false
				} else {
					ks.shared--
				}
				if len(ks.waiting) > 0 {
					j := ks.waiting[0]
					if _, xj := r.key(j); ks.admit(xj) {
						ks.waiting = ks.waiting[1:]
						return j, true
					}
				}
			}
		}
		for {
			if next >= n || (due == nil && nowNs()-t0 >= int64(limit)) {
				return 0, false
			}
			i := next
			next++
			k, x := r.key(i)
			if k < 0 {
				return i, true
			}
			ks := keys[k]
			if ks == nil {
				ks = &keyState{}
				keys[k] = ks
			}
			if len(ks.waiting) == 0 && ks.admit(x) {
				return i, true
			}
			ks.waiting = append(ks.waiting, i)
		}
	}
	for w := range ws {
		wg.Add(1)
		go func(w int, wk *worker) {
			defer wg.Done()
			for i, ok := advance(-1); ok; i, ok = advance(i) {
				if due != nil {
					waitUntil(t0 + due[i])
				}
				s := nowNs() - t0
				if due != nil && s-due[i] > int64(maxLate) {
					wk.dropped++
					continue
				}
				err := r.serve(w, i)
				e := nowNs() - t0
				if err != nil {
					wk.failed++
					if wk.err == nil {
						wk.err = err
					}
				}
				if due != nil {
					wk.late = max(wk.late, s-due[i])
					wk.log = append(wk.log, servedReq{uint32(i), uint32(s - due[i]), uint32(min(e-s, 1<<32-1))})
				} else {
					wk.done.add(e, 1)
					wk.lastEnd = e
				}
			}
		}(w, &ws[w])
	}
	wg.Wait()
	p.n = next
	if due == nil {
		p.done = newMeter(limit)
	}
	lastEnd := int64(0)
	for w := range ws {
		wk := &ws[w]
		p.log = append(p.log, wk.log...)
		p.done.merge(wk.done)
		p.failed += wk.failed
		p.dropped += wk.dropped
		p.late = max(p.late, wk.late)
		lastEnd = max(lastEnd, wk.lastEnd)
		if p.firstErr == nil {
			p.firstErr = wk.err
		}
	}
	if due == nil && p.n == n {
		// The closed loop ran out of requests before its time limit.
		p.length = min(lastEnd, int64(limit))
	}
	return p
}

// waitUntil returns at monotonic time t (nowNs scale): it sleeps while
// the gap exceeds spinBelow and spins for the rest, yielding at most
// every yieldEvery.
func waitUntil(t int64) {
	yielded := nowNs()
	for {
		now := nowNs()
		switch d := time.Duration(t - now); {
		case d <= 0:
			return
		case d > spinBelow:
			time.Sleep(d - spinBelow)
			yielded = nowNs()
		case time.Duration(now-yielded) > yieldEvery:
			runtime.Gosched()
			yielded = nowNs()
		}
	}
}

// latencies returns, in ns from due time, the latencies of the served
// requests whose index is a multiple of every.
func (p *phase) latencies(every int) []int64 {
	out := make([]int64, 0, len(p.log)/every+1)
	for _, s := range p.log {
		if int(s.i)%every == 0 {
			out = append(out, int64(s.wait)+int64(s.run))
		}
	}
	return out
}

// backlog counts the requests that were due within the schedule window
// but had not started when it closed: the dropped ones, and the ones
// that started after the window.
func (p *phase) backlog() int {
	b := int(p.dropped)
	for _, s := range p.log {
		if p.due[s.i]+int64(s.wait) > p.length {
			b++
		}
	}
	return b
}

// gbps is the closed loop's throughput in GB/s, crediting bytesPerOp per
// completed request; see meter.gbps.
func (p *phase) gbps(bytesPerOp int64) float64 {
	return p.done.gbps(p.length) * float64(bytesPerOp)
}

// stepResult is one open-loop rate step.
type stepResult struct {
	rate     float64
	requests int
	p50, p99 float64 // ms
	backlog  int
	dropped  int64
	ok       bool // p99 within the limit and no growing backlog
}

// evalStep judges a step against the p99 limit: it is sustained when
// p99 stays within the limit, nothing was dropped, and no more requests
// were waiting at the window's end than arrive within one limit.
func evalStep(p *phase, rate float64, limit time.Duration) stepResult {
	lat := p.latencies(1)
	r := stepResult{
		rate:     rate,
		requests: p.n,
		p50:      float64(percentileNs(lat, 0.50)) / 1e6,
		p99:      float64(percentileNs(lat, 0.99)) / 1e6,
		backlog:  p.backlog(),
		dropped:  p.dropped,
	}
	r.ok = r.p99 <= float64(limit)/1e6 && r.dropped == 0 && float64(r.backlog) <= rate*limit.Seconds()+1
	return r
}

// stepper is an open-loop workload: it drives one rate step, or the
// closed-loop capacity phase at rate 0.
type stepper interface {
	phase(rate float64, d time.Duration, tr *tracer) *phase
}

// classer is a stepper whose requests fall into classes whose latencies
// are reported apart (degraded-io: reads and writes).
type classer interface {
	// class names the class of request i of the phase just driven.
	class(i int) string
}

// openLoop runs the nominal rate for 40% of d (all of d when
// nominalOnly), then each higher ladder rate for 10% of d, then the
// closed-loop capacity phase for 40% of d, whose throughput is gbps.
// The nominal step supplies the latency percentiles; with tr set, every
// traceEvery-th request of it records spans.
func openLoop(w stepper, d time.Duration, tr *tracer, traceEvery int, nominalOnly bool, ladder []float64, limit time.Duration, bytesPerOp int64) *measured {
	out := &measured{}
	nominal := d * 40 / 100
	if nominalOnly {
		nominal = d
	}
	p := w.phase(ladder[0], nominal, tr)
	out.absorb(p)
	out.lat = p.latencies(1)
	if tr != nil {
		out.tracedLat = p.latencies(traceEvery)
	}
	if c, ok := w.(classer); ok {
		out.classes = map[string][]int64{}
		for _, s := range p.log {
			k := c.class(int(s.i))
			out.classes[k] = append(out.classes[k], int64(s.wait)+int64(s.run))
		}
	}
	out.late = p.late
	out.steps = append(out.steps, evalStep(p, ladder[0], limit))
	if nominalOnly {
		return out
	}
	for _, rate := range ladder[1:] {
		p := w.phase(rate, d*10/100, nil)
		out.absorb(p)
		out.steps = append(out.steps, evalStep(p, rate, limit))
	}
	for _, st := range out.steps {
		if st.ok {
			out.maxRPS = max(out.maxRPS, st.rate)
		}
	}
	capPhase := w.phase(0, d*40/100, nil)
	out.absorb(capPhase)
	out.gbps = capPhase.gbps(bytesPerOp)
	return out
}
