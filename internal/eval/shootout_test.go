package eval

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"streampca/internal/sketch"
)

func TestShootoutFamilies(t *testing.T) {
	s := testScenario(t)
	tr := s.Trace
	truth, err := GroundTruth(s)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Shootout(s, truth)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	wantVariants := []string{"randproj", "fd"}
	for i, row := range rows {
		t.Logf("%s: typeI=%.3f typeII=%.3f retrains=%d retrain_ns=%d bytes=%d unavail=%d oracle=%d/%d maxrel=%.3g %s",
			row.Variant, row.TypeI(), row.TypeII(), row.Retrains, row.RetrainNanos,
			row.SketchBytes, row.ThresholdUnavail, len(row.Oracle.Violations), row.Oracle.Checks,
			row.Oracle.MaxRelErr, row.Oracle.Worst())
		if row.Variant != wantVariants[i] {
			t.Fatalf("row %d variant %q, want %q", i, row.Variant, wantVariants[i])
		}
		// Every variant scores the same truth-ready intervals.
		if row.TrueAnomalies != truth.NumAnomalous || row.TrueNormals != truth.NumNormal {
			t.Fatalf("%s scored %d/%d intervals, truth has %d/%d",
				row.Variant, row.TrueAnomalies, row.TrueNormals, truth.NumAnomalous, truth.NumNormal)
		}
		if row.TypeI() < 0 || row.TypeI() > 1 || row.TypeII() < 0 || row.TypeII() > 1 {
			t.Fatalf("%s error rates out of range: %+v", row.Variant, row)
		}
		if row.Retrains < 1 {
			t.Fatalf("%s never pulled sketches", row.Variant)
		}
		if row.RetrainNanos <= 0 {
			t.Fatalf("%s retrain cost not measured", row.Variant)
		}
		if row.SketchBytes <= 0 {
			t.Fatalf("%s sketch pull has no size", row.Variant)
		}
		if row.Oracle.Checks < 1 {
			t.Fatalf("%s ran no oracle checks", row.Variant)
		}
	}
	rp, fd := rows[0], rows[1]
	if rp.SketchParam != 64 {
		t.Fatalf("randproj sketch param %d, want 64", rp.SketchParam)
	}
	if fd.SketchParam != sketch.DefaultEll(tr.NumFlows()/4) {
		t.Fatalf("fd defaulted ℓ to %d", fd.SketchParam)
	}
	if rp.Family != sketch.FamilyRandProj || fd.Family != sketch.FamilyFD {
		t.Fatalf("family labels wrong: %+v %+v", rp, fd)
	}
	// The paper's pipeline and the deterministic FD guarantee must both come
	// through the oracle clean.
	if len(rp.Oracle.Violations) != 0 {
		t.Fatalf("randproj oracle violations: %s", rp.Oracle.Worst())
	}
	if len(fd.Oracle.Violations) != 0 {
		t.Fatalf("fd oracle violations: %s", fd.Oracle.Worst())
	}
	// Space: FD blocks (≤ 2ℓ rows of w floats per monitor) must undercut the
	// randproj pull (l floats per flow) at these dimensions.
	if fd.SketchBytes >= rp.SketchBytes {
		t.Fatalf("fd pull (%d B) not smaller than randproj (%d B)", fd.SketchBytes, rp.SketchBytes)
	}
	// Accuracy: randproj runs the lazy retrain-on-alarm protocol (staler
	// models than the sweep's fixed cadence), so the bounds are looser than
	// the sweep test's; a broken pipeline still lands well outside them.
	if rp.TypeI() > 0.2 || rp.TypeII() > 0.8 {
		t.Fatalf("randproj errors too high: TypeI=%v TypeII=%v", rp.TypeI(), rp.TypeII())
	}
}

func TestShootoutValidation(t *testing.T) {
	s := testScenario(t)
	s.SketchLen = 16
	truth, err := GroundTruth(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Shootout(s, nil); !errors.Is(err, ErrInput) {
		t.Fatalf("nil truth: %v", err)
	}
	s.Monitors = 0
	if _, err := Shootout(s, truth); !errors.Is(err, ErrConfig) {
		t.Fatalf("zero monitors: %v", err)
	}
	// 16 flows across 5 monitors split unevenly: the FD variant cannot
	// default a shared ℓ and must fail loudly, not silently diverge.
	s.Monitors = 5
	if _, err := Shootout(s, truth); err == nil {
		t.Fatal("uneven FD split must fail")
	}
}

// TestReplayLeavesNothingRunning: every replay closes its deployment, so the
// oracle's replay, a shoot-out's two and one more leave no
// goroutine behind, and the last replay's NOC no longer accepts.
func TestReplayLeavesNothingRunning(t *testing.T) {
	s := testScenario(t)
	truth, err := GroundTruth(s)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	if _, err := Oracle(s); err != nil {
		t.Fatal(err)
	}
	if _, err := Shootout(s, truth); err != nil {
		t.Fatal(err)
	}
	d, err := s.Replay(sketch.FamilyRandProj, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the replays:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
	if conn, err := net.DialTimeout("tcp", d.NOC.Addr(), time.Second); err == nil {
		conn.Close()
		t.Fatalf("the closed replay's NOC still accepts on %s", d.NOC.Addr())
	}
}
