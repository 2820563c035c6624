package main

import (
	"testing"

	"ppm/internal/codes"
	"ppm/internal/core"
)

func TestBuildCode(t *testing.T) {
	cases := []struct {
		kind    string
		wantErr bool
	}{
		{"sd", false}, {"pmds", false}, {"lrc", false}, {"lrcloc", false},
		{"rs", false}, {"evenodd", false}, {"rdp", false},
		{"nope", true},
	}
	for _, c := range cases {
		code, err := buildCode(c.kind, 6, 4, 2, 1, 12, 2, 2, 3, 5)
		if c.wantErr {
			if err == nil {
				t.Errorf("kind %q accepted", c.kind)
			}
			continue
		}
		if err != nil {
			t.Errorf("kind %q: %v", c.kind, err)
			continue
		}
		if code.Name() == "" {
			t.Errorf("kind %q: empty name", c.kind)
		}
	}
}

func TestPickScenario(t *testing.T) {
	code, err := buildCode("sd", 4, 4, 1, 1, 0, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Explicit faulty list.
	sc, err := pickScenario(code, "2, 6,10", false, false, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faulty) != 3 || sc.Faulty[0] != 2 {
		t.Fatalf("scenario %v", sc.Faulty)
	}
	// Bad entry.
	if _, err := pickScenario(code, "2,x", false, false, 1, 1); err == nil {
		t.Error("garbage -faulty accepted")
	}
	// Worst case.
	sc, err = pickScenario(code, "", true, false, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faulty) != 5 {
		t.Fatalf("worst case %v", sc.Faulty)
	}
	// Encoding.
	sc, err = pickScenario(code, "", false, true, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faulty) != len(code.ParityPositions()) {
		t.Fatal("encode scenario wrong")
	}
	// None selected.
	if _, err := pickScenario(code, "", false, false, 1, 1); err == nil {
		t.Error("no scenario selector accepted")
	}
}

func TestPickScenarioWorstPerFamily(t *testing.T) {
	for _, kind := range []string{"pmds", "lrc", "lrcloc", "rs", "evenodd", "rdp"} {
		code, err := buildCode(kind, 6, 4, 2, 1, 12, 2, 2, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := pickScenario(code, "", true, false, 1, 3)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(sc.Faulty) == 0 || !codes.Decodable(code, sc) {
			t.Fatalf("%s: bad worst case %v", kind, sc.Faulty)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]core.Strategy{
		"auto":               core.StrategyAuto,
		"ppm":                core.StrategyPPM,
		"ppm-c3":             core.StrategyPPMMatrixFirstRest,
		"ppm-folded":         core.StrategyPPMFolded,
		"whole-normal":       core.StrategyWholeNormal,
		"whole-matrix-first": core.StrategyWholeMatrixFirst,
	}
	for s, want := range cases {
		got, err := parseStrategy(s)
		if err != nil || got != want {
			t.Errorf("parseStrategy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseStrategy("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
}
