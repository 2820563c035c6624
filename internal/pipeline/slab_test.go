package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ppm/internal/codes"
	"ppm/internal/decode"
	"ppm/internal/stripe"
)

// slabsOf returns the slabs of an idle engine's jobs.
func slabsOf(e *Engine) []*stripe.Stripe {
	var out []*stripe.Stripe
	for i := 0; i < e.cfg.Depth; i++ {
		j := <-e.free
		out = append(out, j.slab)
		e.free <- j
	}
	return out
}

// shares reports whether a and b hold a slab in common.
func shares(a, b []*stripe.Stripe) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// encodeImages is the stream image of data encoded with decode.Encode,
// one zeroed stripe at a time: the reference for EncodeStream's output
// that shares nothing with the engine or its slabs.
func encodeImages(t testing.TB, c codes.Code, data []byte, sectorSize int) []byte {
	t.Helper()
	var out []byte
	pos := codes.DataPositions(c)
	for off := 0; off < len(data); {
		st, err := stripe.New(c.NumStrips(), c.NumRows(), sectorSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pos {
			off += copy(st.Sector(p), data[off:])
		}
		if err := decode.Encode(c, st, decode.Options{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < st.TotalSectors(); i++ {
			out = append(out, st.Sector(i)...)
		}
	}
	return out
}

// TestSlabsRecycled: Close gives a healthy engine's slabs to the next
// engine of the same geometry, and keeps every slab of a poisoned one.
// Slabs given back on one goroutine are all taken on another, even
// while the giver keeps its P busy, and slabs left idle return to the
// GC.
func TestSlabsRecycled(t *testing.T) {
	sd := testSD(t)
	// A sector size no other test uses, so no other engine's slabs sit
	// in this geometry's pool.
	const sector = 1028
	build := func() *Engine {
		t.Helper()
		e, err := New(sd, codes.EncodingScenario(sd), sector, Config{Depth: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	t.Run("healthy", func(t *testing.T) {
		first := build()
		old := slabsOf(first)
		first.Close()
		next := build()
		defer next.Close()
		if !shares(old, slabsOf(next)) {
			t.Fatal("an engine built after Close got none of the closed engine's slabs")
		}
	})

	t.Run("poisoned", func(t *testing.T) {
		victim := build()
		old := slabsOf(victim)
		victim.shardErr.Store(errors.New("injected shard death"))
		victim.Close()
		for i := 0; i < 3; i++ {
			next := build()
			got := slabsOf(next)
			next.Close()
			if shares(old, got) {
				t.Fatal("a poisoned engine's slab reached another engine")
			}
		}
	})

	// Its own geometry, so no engine above left slabs on its list.
	const n, r, size = 3, 2, 1036
	given := make([]*stripe.Stripe, 4)
	for i := range given {
		st, err := stripe.New(n, r, size)
		if err != nil {
			t.Fatal(err)
		}
		given[i] = st
	}

	t.Run("across goroutines", func(t *testing.T) {
		gave, taken := make(chan struct{}), make(chan struct{})
		go func() {
			for _, st := range given {
				giveSlab(st)
			}
			close(gave)
			// Keep this goroutine's P busy while the other one takes.
			for {
				select {
				case <-taken:
					return
				default:
				}
			}
		}()
		defer close(taken)
		<-gave
		var got []*stripe.Stripe
		for range given {
			st, err := takeSlab(n, r, size)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, st)
		}
		for _, st := range given {
			if !shares([]*stripe.Stripe{st}, got) {
				t.Fatalf("took %d slabs on another goroutine, but not every one of the %d given", len(got), len(given))
			}
		}
	})

	t.Run("idle slabs return to the GC", func(t *testing.T) {
		for _, st := range given {
			giveSlab(st)
		}
		l := slabListOf(slabKey{n, r, size})
		idle := func() int {
			l.mu.Lock()
			defer l.mu.Unlock()
			return len(l.idle)
		}
		for i := 0; i < 100 && idle() > 0; i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if k := idle(); k > 0 {
			t.Fatalf("%d slabs still idle after 100 collections", k)
		}
	})
}

// TestRecycledSlabsNeverTrustedClean runs three streams in sequence
// over the same slabs: a full random payload, a shorter one that ends
// mid-sector in the middle of a stripe, and a decode of the shorter one
// under a worst-case scenario. No byte of an earlier stream may show
// in a later one's output.
func TestRecycledSlabsNeverTrustedClean(t *testing.T) {
	atDepths(t, 3, testRecycledSlabsNeverTrustedClean)
}

func testRecycledSlabsNeverTrustedClean(t *testing.T, depth int) {
	sd := testSD(t)
	const sector = 256
	cfg := Config{Depth: depth, Workers: 2}
	data := codes.DataPositions(sd)
	perStripe := len(data) * sector

	full := make([]byte, perStripe*8)
	rand.New(rand.NewSource(3)).Read(full)
	var enc bytes.Buffer
	if _, err := EncodeStream(sd, &enc, bytes.NewReader(full), sector, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), encodeImages(t, sd, full, sector)) {
		t.Fatal("full payload: EncodeStream differs from decode.Encode")
	}

	// Two whole stripes, then half the data sectors and half a sector.
	short := make([]byte, perStripe*2+len(data)/2*sector+sector/2)
	rand.New(rand.NewSource(4)).Read(short)
	enc.Reset()
	if _, err := EncodeStream(sd, &enc, bytes.NewReader(short), sector, cfg); err != nil {
		t.Fatal(err)
	}
	want := encodeImages(t, sd, short, sector)
	if got := enc.Bytes(); !bytes.Equal(got, want) {
		first := 0
		for first < len(got) && first < len(want) && got[first] == want[first] {
			first++
		}
		t.Fatalf("short payload: image differs from decode.Encode's at byte %d of %d (len %d)", first, len(want), len(got))
	}

	sc, err := sd.WorstCaseScenario(rand.New(rand.NewSource(5)), sd.S())
	if err != nil {
		t.Fatal(err)
	}
	images := append([]byte(nil), want...)
	stripeBytes := codes.TotalSectors(sd) * sector
	rng := rand.New(rand.NewSource(6))
	for off := 0; off < len(images); off += stripeBytes {
		for _, f := range sc.Faulty {
			rng.Read(images[off+f*sector : off+(f+1)*sector])
		}
	}
	var dec bytes.Buffer
	if _, err := DecodeStream(sd, &dec, bytes.NewReader(images), sc, int64(len(short)), sector, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Bytes(), short) {
		t.Fatal("worst-case decode over recycled slabs did not return the payload")
	}
}

// TestWarmEncodeStreamAllocatesNoSlab: once a call has run, the next
// EncodeStream of the same geometry takes its slabs from the previous
// engines', so it allocates less than one slab in all, plan and engine
// included. Without recycling it allocates Depth slabs.
func TestWarmEncodeStreamAllocatesNoSlab(t *testing.T) {
	sd, err := codes.NewSD(8, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const sector = 32 << 10
	slab := uint64(codes.TotalSectors(sd) * sector)
	data := make([]byte, 4*len(codes.DataPositions(sd))*sector)
	rand.New(rand.NewSource(7)).Read(data)
	for _, cfg := range []Config{{Depth: 4, Workers: 2}, {Depth: 1}} {
		t.Run(fmt.Sprintf("depth=%d", cfg.Depth), func(t *testing.T) {
			call := func() {
				if _, err := EncodeStream(sd, io.Discard, bytes.NewReader(data), sector, cfg); err != nil {
					t.Fatal(err)
				}
			}
			call()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			call()
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= slab {
				t.Fatalf("a warm 4-stripe EncodeStream allocated %d bytes, want < one %d-byte slab", got, slab)
			}
		})
	}
}

// TestStreamRejectsNonPositiveSector: a stream of sector size 0 or
// below is an error before any engine is built. It used to build a
// slab-less engine whose source then dereferenced the missing slab: a
// panic on the fill goroutine no caller could recover.
func TestStreamRejectsNonPositiveSector(t *testing.T) {
	sd := testSD(t)
	sc := codes.EncodingScenario(sd)
	for _, depth := range []int{0, 1} {
		for _, size := range []int{0, -4} {
			cfg := Config{Depth: depth}
			if _, err := EncodeStream(sd, io.Discard, bytes.NewReader(payload(100)), size, cfg); err == nil {
				t.Errorf("depth %d: EncodeStream accepted sector size %d", depth, size)
			}
			if _, err := DecodeStream(sd, io.Discard, bytes.NewReader(payload(100)), sc, -1, size, cfg); err == nil {
				t.Errorf("depth %d: DecodeStream accepted sector size %d", depth, size)
			}
		}
	}
	if _, err := New(sd, sc, -4, Config{}); err == nil {
		t.Error("New accepted a negative sector size")
	}
}
