package kernel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is a persistent pool of goroutines shared by every parallel
// executor in the repository (the PPM group fan-out, the kernels' tile
// span fan-out, and the block-parallel baseline).
// It replaces per-decode goroutine spawning: under a whole-disk rebuild
// the executors dispatch thousands of times, and reusing a fixed set of
// workers keeps that path free of goroutine-creation overhead and
// per-call error plumbing.
//
// The error contract is the one the executors rely on: Run collects the
// outcome of every task and returns the error from the lowest task
// index, deterministically, regardless of scheduling order. Panics
// inside a task are recovered and reported as that task's error — a
// failing sub-decode can never take down the process or, worse, be
// silently dropped by a goroutine that nobody joins.
//
//ppm:nocopy
type Workers struct {
	tasks chan func()
}

// NewWorkers starts a pool of n persistent worker goroutines.
func NewWorkers(n int) *Workers {
	if n < 1 {
		n = 1
	}
	w := &Workers{tasks: make(chan func())}
	for i := 0; i < n; i++ {
		go func() {
			for task := range w.tasks {
				task()
			}
		}()
	}
	return w
}

var (
	defaultWorkers     *Workers
	defaultWorkersOnce sync.Once
)

// DefaultWorkers returns the process-wide pool, sized to the core
// count, started lazily on first use.
func DefaultWorkers() *Workers {
	defaultWorkersOnce.Do(func() {
		defaultWorkers = NewWorkers(runtime.NumCPU())
	})
	return defaultWorkers
}

// runState is the shared state of one Run call. Task indices are
// claimed atomically so a single task closure serves every submission.
type runState struct {
	fn   func(int) error
	next atomic.Int64
	wg   sync.WaitGroup

	mu  sync.Mutex
	idx int
	err error
}

func (st *runState) runOne() {
	defer st.wg.Done()
	i := int(st.next.Add(1)) - 1
	if err := callTask(st.fn, i); err != nil {
		st.mu.Lock()
		if st.idx < 0 || i < st.idx {
			st.idx, st.err = i, err
		}
		st.mu.Unlock()
	}
}

// Run executes fn(0) .. fn(n-1) across the pool and waits for all of
// them. It returns the error of the lowest failing index (nil if every
// task succeeded); a panicking task counts as failed with an error
// describing the panic. Tasks that cannot be handed to an idle worker
// immediately run inline on the calling goroutine, so Run never blocks
// on a busy pool and may be nested (a task may itself call Run).
func (w *Workers) Run(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return callTask(fn, 0)
	}
	st := &runState{fn: fn, idx: -1}
	st.wg.Add(n)
	task := st.runOne
	for i := 0; i < n; i++ {
		select {
		case w.tasks <- task:
		default:
			task()
		}
	}
	st.wg.Wait()
	return st.err
}

// callTask invokes fn(i), converting a panic into an error.
func callTask(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("kernel: task %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}
