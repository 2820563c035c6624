package xorplan

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// DefaultCacheSize bounds the compiled-program LRU. Programs are a few
// KiB each; 256 covers every matrix a realistic code family compiles
// (per-stripe decode matrices included) without unbounded growth.
const DefaultCacheSize = 256

// ErrVerify wraps a plan-verification rejection: the compiled program
// failed the registered symbolic verifier and was not admitted to the
// cache. Callers that silently fall back on other compile failures
// (kernel.Compile) must NOT swallow this one — a rejected program means
// the compiler emitted provably wrong code.
var ErrVerify = errors.New("xorplan: compiled program failed plan verification")

// verifier is the registered plan verifier (a func(gf.Field,
// *matrix.Matrix, *Program) error), set by internal/planverify's init.
// The hook indirection exists because planverify must import xorplan to
// walk programs; registration keeps the dependency one-way, the same
// RegisterAutoTuner idiom pipeline/tune use.
var verifier atomic.Value

type verifierFn func(gf.Field, *matrix.Matrix, *Program) error

// RegisterVerifier installs the symbolic plan verifier consulted when
// plan verification is enabled. fn must be safe for concurrent use.
func RegisterVerifier(fn func(gf.Field, *matrix.Matrix, *Program) error) {
	verifier.Store(verifierFn(fn))
}

// verifyPlans gates compile-time verification: off by default (the
// verifier costs a symbolic walk per compile), enabled process-wide by
// PPM_VERIFY_PLANS=1 or SetVerifyPlans. Cache hits never re-verify, so
// the gate's overhead is confined to cache misses.
var verifyPlans atomic.Bool

func init() {
	if os.Getenv("PPM_VERIFY_PLANS") == "1" {
		verifyPlans.Store(true)
	}
}

// SetVerifyPlans enables or disables compile-time plan verification and
// returns the previous setting (restore idiom for tests).
func SetVerifyPlans(on bool) (prev bool) { return verifyPlans.Swap(on) }

// verifyCompiled runs the registered verifier against a freshly
// compiled program when the gate is on. A nil return admits the
// program; ErrVerify-wrapped errors refuse it.
func verifyCompiled(f gf.Field, m *matrix.Matrix, p *Program) error {
	if !verifyPlans.Load() {
		return nil
	}
	fn, _ := verifier.Load().(verifierFn)
	if fn == nil {
		return nil
	}
	if err := fn(f, m, p); err != nil {
		return fmt.Errorf("%w: %v", ErrVerify, err)
	}
	return nil
}

// The cache key is the exact encoded matrix — width, dimensions and
// every coefficient — not a digest, so distinct matrices can never
// collide into the wrong program.
func cacheKey(f gf.Field, m *matrix.Matrix) string {
	rows, cols := m.Rows(), m.Cols()
	buf := make([]byte, 0, 12+4*rows*cols)
	var u [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(u[:], v)
		buf = append(buf, u[:]...)
	}
	put(uint32(f.W()))
	put(uint32(rows))
	put(uint32(cols))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			put(m.At(i, j))
		}
	}
	return string(buf)
}

type cacheEntry struct {
	key  string
	prog *Program
}

var progCache = struct {
	mu           sync.Mutex
	byKey        map[string]*list.Element
	order        *list.List // front = most recently used
	cap          int
	hits, misses atomic.Int64
}{
	byKey: make(map[string]*list.Element),
	order: list.New(),
	cap:   DefaultCacheSize,
}

// CompileCached returns the compiled program for (f, m), memoizing
// compilations in a process-wide LRU. The returned Program is shared
// and immutable; concurrent callers may race to compile the same key,
// in which case one result wins and the others are dropped.
func CompileCached(f gf.Field, m *matrix.Matrix) (*Program, error) {
	key := cacheKey(f, m)
	c := &progCache
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		prog := el.Value.(*cacheEntry).prog
		c.mu.Unlock()
		c.hits.Add(1)
		return prog, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)
	prog, err := Compile(f, m)
	if err != nil {
		return nil, err
	}
	// Opt-in gate (PPM_VERIFY_PLANS=1): prove the program equals its
	// matrix before it is admitted to the LRU — misses pay the symbolic
	// walk, hits stay untouched.
	if err := verifyCompiled(f, m, prog); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok { // lost a compile race: keep the incumbent
		c.order.MoveToFront(el)
		prog = el.Value.(*cacheEntry).prog
	} else {
		c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, prog: prog})
		for c.order.Len() > c.cap {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.byKey, oldest.Value.(*cacheEntry).key)
		}
	}
	c.mu.Unlock()
	return prog, nil
}

// CacheStats returns the cumulative hit and miss counts of
// CompileCached since process start.
func CacheStats() (hits, misses int64) {
	return progCache.hits.Load(), progCache.misses.Load()
}
