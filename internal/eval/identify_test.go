package eval

import (
	"errors"
	"testing"

	"streampca/internal/traffic"
)

// identifyTestTrace builds the labeled attack workload at test scale:
// 4 routers (m=16), 480 intervals, warmup 128.
func identifyTestTrace(t *testing.T) *traffic.Trace {
	t.Helper()
	tr, err := BuildIdentifyTrace(31, 480, 96, 128, []string{"A", "B", "C", "D"})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// identifyTestScenario runs the suite on that trace with four randproj
// monitors; the tests give fd one wide shard (fdMonitors = 1).
func identifyTestScenario(t *testing.T) Scenario {
	return Scenario{
		Trace: identifyTestTrace(t), WindowLen: 128, Rank: 4, Alpha: 0.01, Epsilon: 0.01,
		Seed: 9, SketchLen: 64, Monitors: 4,
	}
}

func TestIdentifySuiteScoresAllVariants(t *testing.T) {
	rows, err := IdentifySuite(identifyTestScenario(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	wantVariants := []string{"randproj", "fd", "pcp-offline"}
	for i, row := range rows {
		t.Logf("%s: scored=%d missed=%d false=%d p@1=%.3f p@3=%.3f recall=%.3f explained=%.3f culprits=%.1f",
			row.Variant, row.Scored, row.Missed, row.FalseAlarms,
			row.Precision1, row.Precision3, row.Recall, row.MeanExplained, row.MeanCulprits)
		for _, ks := range row.Kinds {
			t.Logf("  %s: scored=%d missed=%d p@3=%.3f recall=%.3f",
				ks.Kind, ks.Scored, ks.Missed, ks.Precision3, ks.Recall)
		}
		if row.Variant != wantVariants[i] {
			t.Fatalf("row %d variant %q, want %q", i, row.Variant, wantVariants[i])
		}
		if row.Scored == 0 {
			t.Fatalf("%s scored no intervals", row.Variant)
		}
		if row.Precision1 < 0 || row.Precision1 > 1 || row.Precision3 < 0 || row.Precision3 > 1 ||
			row.Recall < 0 || row.Recall > 1 {
			t.Fatalf("%s scores out of range: %+v", row.Variant, row)
		}
	}
}

// TestIdentifyPrecisionSingleFlowScenarios is the satellite property test:
// on single-flow injections (the spike/DDoS shape and the low-and-slow
// exfiltration) the pursuit must name the injected flow with precision@k
// ≥ 0.8, for both sketcher families.
func TestIdentifyPrecisionSingleFlowScenarios(t *testing.T) {
	rows, err := IdentifySuite(identifyTestScenario(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows[:2] { // the two online families
		kinds := map[string]IdentifyKindScore{}
		for _, ks := range row.Kinds {
			kinds[ks.Kind] = ks
		}
		for _, kind := range []string{"spike", "exfil"} {
			ks, ok := kinds[kind]
			if !ok || ks.Scored == 0 {
				t.Fatalf("%s never alarmed on a %s interval", row.Variant, kind)
			}
			if ks.Precision3 < 0.8 {
				t.Errorf("%s %s precision@3 = %.3f, want >= 0.8", row.Variant, kind, ks.Precision3)
			}
			if ks.Recall < 0.8 {
				t.Errorf("%s %s recall = %.3f, want >= 0.8", row.Variant, kind, ks.Recall)
			}
		}
	}
}

// TestIdentifyFlashCrowdDDoSSameCulprits asserts the disambiguation pair:
// flash crowd and DDoS hit the same destination, so identification must
// recover the same flow set for both (high recall on each).
func TestIdentifyFlashCrowdDDoSSameCulprits(t *testing.T) {
	rows, err := IdentifySuite(identifyTestScenario(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows[:2] {
		for _, ks := range row.Kinds {
			if ks.Kind != "ddos" && ks.Kind != "flash-crowd" {
				continue
			}
			if ks.Scored == 0 {
				t.Fatalf("%s never alarmed on a %s interval", row.Variant, ks.Kind)
			}
			if ks.Precision3 < 0.6 {
				t.Errorf("%s %s precision@3 = %.3f, want >= 0.6", row.Variant, ks.Kind, ks.Precision3)
			}
		}
	}
}

func TestIdentifySuiteValidation(t *testing.T) {
	s := identifyTestScenario(t)
	s.Monitors = 0
	if _, err := IdentifySuite(s, 1); !errors.Is(err, ErrConfig) {
		t.Fatalf("zero monitors: %v", err)
	}
	clean, err := traffic.Generate(traffic.GeneratorConfig{
		Routers: []string{"A", "B"}, NumIntervals: 300, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s = identifyTestScenario(t)
	s.Trace = clean
	if _, err := IdentifySuite(s, 1); !errors.Is(err, ErrInput) {
		t.Fatalf("unlabeled trace: %v", err)
	}
	// A window the trace never fills leaves the comparator nothing to
	// decompose.
	s = identifyTestScenario(t)
	s.WindowLen = 10_000
	if _, err := IdentifySuite(s, 1); !errors.Is(err, ErrConfig) {
		t.Fatalf("window past the trace: %v", err)
	}
	if _, err := BuildIdentifyTrace(1, 140, 96, 128, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("too-short trace: %v", err)
	}
}
