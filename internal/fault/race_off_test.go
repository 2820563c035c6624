//go:build !race

package fault

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions are skipped under -race: the detector
// makes sync.Pool deliberately drop items to expose misuse, so pooled
// paths legitimately allocate there.
const raceEnabled = false
