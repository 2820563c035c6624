//go:build race

package fault

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
