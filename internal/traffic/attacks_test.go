package traffic

import (
	"math"
	"reflect"
	"testing"
)

func attackTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := Generate(GeneratorConfig{NumIntervals: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAttackKindStrings(t *testing.T) {
	want := map[AnomalyKind]string{
		Spike: "spike", Coordinated: "coordinated", FlashCrowd: "flash-crowd",
		PortScan: "port-scan", Exfil: "exfil", DDoS: "ddos",
		AnomalyKind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	// The attack kinds must extend, not collide with, the paper kinds.
	seen := map[AnomalyKind]bool{}
	for _, k := range []AnomalyKind{Spike, Coordinated, FlashCrowd, PortScan, Exfil, DDoS} {
		if seen[k] {
			t.Fatalf("anomaly kind value %d reused", k)
		}
		seen[k] = true
	}
}

func TestInjectPortScan(t *testing.T) {
	tr := attackTrace(t)
	nR := len(tr.RouterNames)
	base := tr.Volumes.Clone()
	const src, start, end, mag = 3, 10, 14, 2.5
	if err := tr.InjectPortScan(src, start, end, mag); err != nil {
		t.Fatal(err)
	}
	inj := tr.Injections[len(tr.Injections)-1]
	if inj.Kind != PortScan || len(inj.Flows) != nR-1 {
		t.Fatalf("injection %+v", inj)
	}
	for _, f := range inj.Flows {
		if f/nR != src || f%nR == src {
			t.Fatalf("flow %d is not an outgoing flow of router %d", f, src)
		}
		for i := start; i < end; i++ {
			want := base.At(i, f) + math.Round(mag*tr.baseMeans[f])
			if tr.Volumes.At(i, f) != want {
				t.Fatalf("flow %d interval %d: %g want %g", f, i, tr.Volumes.At(i, f), want)
			}
		}
	}
	if err := tr.InjectPortScan(nR, 0, 4, 1); err == nil {
		t.Fatal("out-of-range source must error")
	}
}

func TestInjectExfilAndDDoS(t *testing.T) {
	tr := attackTrace(t)
	nR := len(tr.RouterNames)
	if err := tr.InjectExfil(7, 5, 60, 0.08); err != nil {
		t.Fatal(err)
	}
	if inj := tr.Injections[len(tr.Injections)-1]; inj.Kind != Exfil || !reflect.DeepEqual(inj.Flows, []int{7}) {
		t.Fatalf("exfil injection %+v", inj)
	}
	const dest = 2
	if err := tr.InjectDDoS(dest, 20, 24, 4); err != nil {
		t.Fatal(err)
	}
	inj := tr.Injections[len(tr.Injections)-1]
	if inj.Kind != DDoS || len(inj.Flows) != nR-1 {
		t.Fatalf("ddos injection %+v", inj)
	}
	for _, f := range inj.Flows {
		if f%nR != dest || f/nR == dest {
			t.Fatalf("flow %d is not an incoming flow of router %d", f, dest)
		}
	}
	if err := tr.InjectDDoS(-1, 0, 4, 1); err == nil {
		t.Fatal("out-of-range destination must error")
	}
}

func TestAnomalousFlows(t *testing.T) {
	tr := attackTrace(t)
	if err := tr.InjectExfil(7, 5, 15, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := tr.InjectSpike(7, 10, 12, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := tr.InjectSpike(30, 10, 12, 2.0); err != nil {
		t.Fatal(err)
	}
	if got := tr.AnomalousFlows(4); got != nil {
		t.Fatalf("clean interval labeled %v", got)
	}
	if got := tr.AnomalousFlows(6); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("interval 6: %v", got)
	}
	if got := tr.AnomalousFlows(10); !reflect.DeepEqual(got, []int{7, 30}) {
		t.Fatalf("interval 10: %v (overlap must union and sort)", got)
	}
}
