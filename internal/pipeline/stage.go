package pipeline

// Stage observability. Each engine keeps three cumulative stall
// counters, one per stage, measuring the nanoseconds the stage spent
// blocked on the rest of the pipeline:
//
//   - fill stall: the fill goroutine waiting for a free slab — compute
//     and drain hold every job, so intake is throttled by downstream
//     (a healthy sign under backpressure, a sink/compute bottleneck
//     otherwise).
//   - compute stall: shards waiting for filled stripes while a run is
//     active — the Source (read I/O) cannot keep the cores fed.
//   - drain stall: the Run goroutine waiting for the next in-order
//     stripe's completion — head-of-line compute (or fill) latency.
//
// With a ConcurrentSource the shards fill the stripes themselves: its
// fills count as shard busy time, and the fill goroutine, which only
// hands out indices, stalls only on the free list.
//
// The counters are sampled only when a stage would actually block
// (channel fast paths add nothing), accumulate across runs, and cost
// two time.Now calls per blocking event. They answer the capacity
// question the repository benchmark reports as pipeline.*_stall_s:
// which stage to widen when a host saturates. A Depth-1 engine has no
// stalls: its stages run in sequence on one goroutine and never wait
// on each other, so all three counters stay 0 while Stripes still
// moves.

// StageStats is a snapshot of an engine's (or pool's) cumulative stage
// stall times and drained stripe count. Durations are nanoseconds; a
// Depth-1 engine's stalls are always 0.
type StageStats struct {
	// FillStallNs is time the fill stage spent waiting for a free slab.
	FillStallNs int64 `json:"fill_stall_ns"`
	// ComputeStallNs is time compute shards spent starved for filled
	// stripes while a run was active.
	ComputeStallNs int64 `json:"compute_stall_ns"`
	// DrainStallNs is time the drain stage spent waiting for the next
	// in-order stripe to finish compute.
	DrainStallNs int64 `json:"drain_stall_ns"`
	// Stripes is the number of stripes drained.
	Stripes int64 `json:"stripes"`
}

// Add accumulates o into s, for aggregating engines into a pool view.
func (s *StageStats) Add(o StageStats) {
	s.FillStallNs += o.FillStallNs
	s.ComputeStallNs += o.ComputeStallNs
	s.DrainStallNs += o.DrainStallNs
	s.Stripes += o.Stripes
}

// StageStats returns a snapshot of the engine's cumulative stage stall
// counters. Safe to call concurrently with a Run; the counters only
// reset with the engine.
func (e *Engine) StageStats() StageStats {
	return StageStats{
		FillStallNs:    e.fillStall.Load(),
		ComputeStallNs: e.computeStall.Load(),
		DrainStallNs:   e.drainStall.Load(),
		Stripes:        e.stripes.Load(),
	}
}
