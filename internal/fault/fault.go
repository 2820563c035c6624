// Package fault is the repository's fault model: a deterministic,
// seeded injection substrate plus the machinery the rest of the system
// uses to survive what it injects.
//
// Injection. A Schedule maps (stripe, disk) coordinates to fault
// Events — transient read/write errors, latency spikes, hung I/O,
// short (torn) writes, and silent bit-flip corruption — parsed from a
// compact spec string (the ppmfile -faults flag, the harness chaos
// experiment and the CI chaos job all print the schedule so a failing
// run is replayable). FaultyStore wraps a strip store and fires the
// scheduled events.
//
// Survival. Classification (IsTransient), the jittered-exponential
// retry Policy with per-attempt deadlines (Do), CRC-32C sector
// checksums (SectorChecksums/VerifyStripe) and the checksummed
// degraded-read Healer turn injected faults into recoveries: transient
// errors are retried, hung ops are abandoned at their deadline, and
// corrupt or unreadable strips are demoted to erasures and re-decoded.
// This package is the only layer that retries, times out or counts
// storage faults: the streaming pipeline hands every Source/Sink error
// straight to its run.
//
// Nothing in this package may be referenced from a //ppm:hotpath
// region — the faultfree analyzer in internal/lint enforces that the
// injection substrate stays off the steady-state paths.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// ReadError fails a read with a transient I/O error.
	ReadError Kind = iota
	// WriteError fails a write with a transient I/O error.
	WriteError
	// Latency delays an op by the event's Delay, then lets it through.
	Latency
	// Hang blocks an op for the event's Delay (default: effectively
	// forever) — the way a dying disk stalls instead of failing.
	Hang
	// TornWrite persists only a prefix of the strip being written and
	// fails the op: the on-disk state is silently inconsistent.
	TornWrite
	// BitFlip lets the op through but flips bits in the strip's bytes:
	// silent corruption, no error anywhere.
	BitFlip
)

var kindNames = map[Kind]string{
	ReadError:  "read-error",
	WriteError: "write-error",
	Latency:    "latency",
	Hang:       "hang",
	TornWrite:  "torn-write",
	BitFlip:    "bit-flip",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scheduled fault at a (stripe, disk) coordinate.
type Event struct {
	// Stripe and Disk locate the strip the event fires on.
	Stripe, Disk int
	// Kind is the fault class.
	Kind Kind
	// Count is how many times the event fires before clearing; a
	// transient read error with Count 2 fails the first two attempts
	// and lets the third through. Count <= 0 means fire forever
	// (a permanent fault).
	Count int
	// Delay sizes Latency and Hang events.
	Delay time.Duration

	initial int // Count as scheduled, for Clone
}

func (ev Event) String() string {
	s := fmt.Sprintf("%s@%d.%d", ev.Kind, ev.Stripe, ev.Disk)
	if ev.Count != 1 {
		s += fmt.Sprintf("x%d", ev.Count)
	}
	if ev.Delay > 0 {
		s += fmt.Sprintf("/%s", ev.Delay)
	}
	return s
}

// Schedule is a deterministic fault plan over a stripes x disks grid.
// Lookups consume event counts, so a Schedule is single-use state;
// clone one per run with Clone when replaying. Lookups are mutex-
// guarded: an op abandoned at its deadline can fire events concurrently
// with the attempt that replaced it.
type Schedule struct {
	mu     sync.Mutex
	seed   int64
	events map[[2]int][]*Event
	fired  int
}

// NewSchedule builds an empty schedule (seed is recorded for String).
func NewSchedule(seed int64) *Schedule {
	return &Schedule{seed: seed, events: make(map[[2]int][]*Event)}
}

// Add appends an event to the schedule. Count <= 0 is normalised to
// -1 (permanent: the event fires on every visit).
func (s *Schedule) Add(ev Event) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := [2]int{ev.Stripe, ev.Disk}
	e := ev
	if e.Count <= 0 {
		e.Count = -1
	}
	e.initial = e.Count
	s.events[key] = append(s.events[key], &e)
	return s
}

// Clone returns a fresh schedule with every event's count reset, for
// replaying the same plan across runs.
func (s *Schedule) Clone() *Schedule {
	c := NewSchedule(s.seed)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, evs := range s.events {
		for _, ev := range evs {
			fresh := *ev
			fresh.Count = ev.initial
			c.Add(fresh)
		}
	}
	return c
}

// Seed returns the schedule's seed, which drives its bit-flip masks.
func (s *Schedule) Seed() int64 { return s.seed }

// Len returns the number of scheduled events (fired or not).
func (s *Schedule) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, evs := range s.events {
		n += len(evs)
	}
	return n
}

// Fired returns how many event firings the schedule has delivered.
func (s *Schedule) Fired() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}

// take returns the next live event of the given kinds at (stripe,
// disk), consuming one firing, or nil. Count > 0 decrements toward
// exhaustion at 0; Count -1 (permanent) fires on every visit.
func (s *Schedule) take(stripe, disk int, kinds ...Kind) *Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	evs := s.events[[2]int{stripe, disk}]
	for _, ev := range evs {
		if ev.Count == 0 {
			continue // exhausted
		}
		for _, k := range kinds {
			if ev.Kind == k {
				if ev.Count > 0 {
					ev.Count--
				}
				s.fired++
				return ev
			}
		}
	}
	return nil
}

// String lists every event in deterministic order — the replayable
// fault plan chaos runs publish in their logs.
func (s *Schedule) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var parts []string
	for _, evs := range s.events {
		for _, ev := range evs {
			parts = append(parts, ev.String())
		}
	}
	sort.Strings(parts)
	return fmt.Sprintf("fault schedule seed=%d events=%d [%s]", s.seed, len(parts), strings.Join(parts, " "))
}

// ParseSpec parses the compact schedule spec used by the ppmfile
// -faults flag. The spec is comma-separated directives:
//
//	seed=N                     seed for the flip masks
//	read@S.D[xC]               transient read error at stripe S, disk D
//	                           (fails C attempts, default 1)
//	flip@S.D                   silent bit-flip corruption of that strip
//	hang@S.D[/DUR]             hung read (default blocks for 1h)
//	lat@S.D/DUR                latency spike of DUR
//	torn@S.D                   torn (short) write of that strip
//
// Example: "seed=7,flip@2.4,read@3.2x2,hang@1.0/1h".
func ParseSpec(spec string) (*Schedule, error) {
	var seed int64 = 1
	var evs []Event
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if v, ok := strings.CutPrefix(part, "seed="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed in %q: %v", part, err)
			}
			seed = n
			continue
		}
		name, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("fault: directive %q is not name@stripe.disk", part)
		}
		var kind Kind
		switch name {
		case "read":
			kind = ReadError
		case "write":
			kind = WriteError
		case "flip":
			kind = BitFlip
		case "hang":
			kind = Hang
		case "lat":
			kind = Latency
		case "torn":
			kind = TornWrite
		default:
			return nil, fmt.Errorf("fault: unknown fault %q in %q", name, part)
		}
		delay := time.Duration(0)
		if kind == Hang {
			delay = time.Hour
		}
		if coord, d, ok := strings.Cut(rest, "/"); ok {
			dur, err := time.ParseDuration(d)
			if err != nil {
				return nil, fmt.Errorf("fault: bad duration in %q: %v", part, err)
			}
			delay, rest = dur, coord
		}
		count := 1
		if coord, c, ok := strings.Cut(rest, "x"); ok {
			n, err := strconv.Atoi(c)
			if err != nil {
				return nil, fmt.Errorf("fault: bad count in %q: %v", part, err)
			}
			count, rest = n, coord
		}
		sstr, dstr, ok := strings.Cut(rest, ".")
		if !ok {
			return nil, fmt.Errorf("fault: coordinate %q is not stripe.disk", rest)
		}
		stripe, err1 := strconv.Atoi(sstr)
		disk, err2 := strconv.Atoi(dstr)
		if err1 != nil || err2 != nil || stripe < 0 || disk < 0 {
			return nil, fmt.Errorf("fault: bad coordinate %q", rest)
		}
		evs = append(evs, Event{Stripe: stripe, Disk: disk, Kind: kind, Count: count, Delay: delay})
	}
	s := NewSchedule(seed)
	for _, ev := range evs {
		s.Add(ev)
	}
	return s, nil
}
