package lint

import "testing"

// Each analyzer runs against its fixture package under testdata/src,
// analysistest-style: `// want "re"` comments mark the lines that must
// be flagged, everything else must stay silent. Every fixture carries
// at least one flagged and one clean case.

func TestHotAllocFixture(t *testing.T) {
	RunFixture(t, ".", HotAlloc, "hotalloc/a")
}

func TestHotAllocXorplanFixture(t *testing.T) {
	RunFixture(t, ".", HotAlloc, "hotalloc/xp")
}

func TestHotAllocRepairFixture(t *testing.T) {
	RunFixture(t, ".", HotAlloc, "hotalloc/repair")
}

func TestHotAllocBlockFixture(t *testing.T) {
	RunFixture(t, ".", HotAlloc, "hotalloc/blk")
}

func TestFaultFreeFixture(t *testing.T) {
	RunFixture(t, ".", FaultFree, "faultfree/a")
}

func TestErrFlowFixture(t *testing.T) {
	RunFixture(t, ".", ErrFlow, "errflow/kernel")
}

func TestRegionArgsFixture(t *testing.T) {
	RunFixture(t, ".", RegionArgs, "regionargs/a")
}

func TestStatsAccountFixture(t *testing.T) {
	RunFixture(t, ".", StatsAccount, "statsaccount/a")
}

func TestStatsAccountXorplanFixture(t *testing.T) {
	RunFixture(t, ".", StatsAccount, "statsaccount/xp")
}

func TestStatsAccountRepairFixture(t *testing.T) {
	RunFixture(t, ".", StatsAccount, "statsaccount/repair")
}

// TestStatsAccountScope pins the implementing packages out of scope:
// gf and xorplan provide the primitives, everyone else accounts them.
func TestStatsAccountScope(t *testing.T) {
	for path, want := range map[string]bool{
		"ppm/internal/kernel":  true,
		"ppm/internal/core":    true,
		"ppm/internal/repair":  true,
		"ppm/internal/gf":      false,
		"ppm/internal/xorplan": false,
	} {
		if got := statsAccountMatch(path); got != want {
			t.Errorf("statsAccountMatch(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestNoCopyLockFixture(t *testing.T) {
	RunFixture(t, ".", NoCopyLock, "nocopylock/a")
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the analyzer", a.Name)
		}
	}
	if ByName("nonexistent") != nil {
		t.Error("ByName(nonexistent) should be nil")
	}
}

// TestErrFlowScope pins the package scope: the error contract covers
// the concurrency packages, not the whole module.
func TestErrFlowScope(t *testing.T) {
	for path, want := range map[string]bool{
		"ppm/internal/kernel":   true,
		"ppm/internal/decode":   true,
		"ppm/internal/pipeline": true,
		"ppm/internal/array":    true,
		"ppm/internal/gf":       false,
		"ppm/internal/harness":  false,
	} {
		if got := errFlowMatch(path); got != want {
			t.Errorf("errFlowMatch(%q) = %v, want %v", path, got, want)
		}
	}
}
