package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// spanKind names a layer boundary the benchmark records a span around.
type spanKind uint8

const (
	spRequest     spanKind = iota // one workload operation
	spRun                         // pipeline Engine.Run / Pool.Run / EncodeStream
	spSourceNext                  // a pipeline Source.Next (or the io.Reader under EncodeStream)
	spSinkDrain                   // a pipeline Sink.Drain (or the io.Writer under EncodeStream)
	spReadSectors                 // fault.Healer.ReadSectors
	spStoreRead                   // fault.Store.ReadStrip
	spStoreWrite                  // fault.Store.WriteStrip
	spUpdate                      // core.Updater.UpdateRange
	spReplay                      // one step of the layer replay
)

var spanNames = [...]string{
	spRequest:     "request",
	spRun:         "pipeline.run",
	spSourceNext:  "pipeline.source_next",
	spSinkDrain:   "pipeline.sink_drain",
	spReadSectors: "fault.read_sectors",
	spStoreRead:   "fault.store_read",
	spStoreWrite:  "fault.store_write",
	spUpdate:      "core.update_range",
	spReplay:      "replay",
}

// noSpan is the id begin returns when nothing was recorded.
const noSpan int32 = -1

// span is one recorded interval; times are nanoseconds since the
// tracer started.
type span struct {
	start, end int64
	parent     int32
	req        int32
	kind       spanKind
}

// tracer keeps spans in a buffer allocated up front, so recording does
// not allocate. Each span is written only by the goroutine that began
// it, and read only after the measured phase has ended. A nil *tracer
// records nothing.
type tracer struct {
	t0      time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	// replayFrom is the index of the first span the layer replay
	// recorded; spans before it belong to the traced workload run.
	replayFrom int
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id (noSpan when t is nil or the
// buffer is full).
func (t *tracer) begin(k spanKind, parent, req int32) int32 {
	if t == nil {
		return noSpan
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return noSpan
	}
	t.spans[i] = span{start: t.now(), end: -1, parent: parent, req: req, kind: k}
	return int32(i)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = t.now()
}

// recorded returns the spans recorded so far.
func (t *tracer) recorded() []span {
	n := int(t.n.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// markReplay records that every later span belongs to the layer replay.
func (t *tracer) markReplay() { t.replayFrom = len(t.recorded()) }

// of returns the ids of the closed spans of kind k, taken from the
// workload run when it recorded any and from the layer replay
// otherwise — so a layer the workload does not call is still measured,
// on the workload's own code and data.
func (t *tracer) of(k spanKind) []int32 {
	all := t.recorded()
	pick := func(lo, hi int) []int32 {
		var ids []int32
		for i := lo; i < hi; i++ {
			if all[i].kind == k && all[i].end >= 0 {
				ids = append(ids, int32(i))
			}
		}
		return ids
	}
	if ids := pick(0, t.replayFrom); len(ids) > 0 {
		return ids
	}
	return pick(t.replayFrom, len(all))
}

// selfTimes returns, for every recorded span, its duration minus the
// part of its interval that its child spans cover. Children may
// overlap each other (fill and drain run on different goroutines).
func (t *tracer) selfTimes() []int64 {
	all := t.recorded()
	children := make(map[int32][]int32)
	for i, s := range all {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(all))
	for i, s := range all {
		if s.end < 0 {
			continue
		}
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return all[kids[a]].start < all[kids[b]].start })
		covered, cur := int64(0), s.start
		for _, c := range kids {
			lo, hi := max(all[c].start, cur), min(all[c].end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// medianDurUs is the median duration of the given spans in µs.
func (t *tracer) medianDurUs(ids []int32) float64 {
	d := make([]float64, len(ids))
	for i, id := range ids {
		s := t.spans[id]
		d[i] = float64(s.end-s.start) / 1e3
	}
	return median(d)
}

// shareOfParents is the summed duration of the child spans of kind k
// whose parents are in parents, divided by the parents' summed duration.
func (t *tracer) shareOfParents(parents []int32, k spanKind) float64 {
	all := t.recorded()
	in := make(map[int32]bool, len(parents))
	var total int64
	for _, p := range parents {
		in[p] = true
		total += all[p].end - all[p].start
	}
	var part int64
	for _, s := range all {
		if s.kind == k && s.end >= 0 && in[s.parent] {
			part += s.end - s.start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// firstChildDelayUs is the median, over parents, of the time from a
// parent's start to the start of its first child of kind k, in µs.
func (t *tracer) firstChildDelayUs(parents []int32, k spanKind) float64 {
	all := t.recorded()
	first := make(map[int32]int64, len(parents))
	for _, s := range all {
		if s.kind != k || s.parent < 0 {
			continue
		}
		if f, ok := first[s.parent]; !ok || s.start < f {
			first[s.parent] = s.start
		}
	}
	var d []float64
	for _, p := range parents {
		if f, ok := first[p]; ok {
			d = append(d, float64(f-all[p].start)/1e3)
		}
	}
	return median(d)
}

// write stores the recorded spans as a JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type out struct {
		ID      int    `json:"id"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		Parent  int32  `json:"parent"`
		Req     int32  `json:"req"`
		Replay  bool   `json:"replay"`
	}
	enc := json.NewEncoder(w)
	fmt.Fprint(w, "[")
	for i, s := range t.recorded() {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if err := enc.Encode(out{i, spanNames[s.kind], s.start, s.end, s.parent, s.req, i >= t.replayFrom}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
