package noc

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"streampca/internal/core"
	"streampca/internal/trace"
)

// TestAlarmFlightRecordsCarryIdentification drives the full monitor → NOC
// deployment with the flight recorder on and asserts the identification leg
// of the alarm audit trail: every alarmed decision's flight record must
// carry the same culprit set (flows, amounts, confidences), explained
// fraction and stop reason the OnDecision callback saw, and the culprits
// must include a spiked flow.
func TestAlarmFlightRecordsCarryIdentification(t *testing.T) {
	const n = testWindow + 12
	const spikeAt = n - 4
	rows := genRows(n, testFlows, spikeAt)

	dir := flightDir(t)
	path := filepath.Join(dir, "identify-flight.jsonl")
	flight, err := trace.OpenFlightRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = flight.Close() })

	cfg := nocConfig()
	cfg.FlightRecorder = flight
	dep := deploy(t, cfg, Topology{Monitors: 3})

	alarms := make(map[int64]Decision)
	for i := 0; i < n; i++ {
		iv := int64(i + 1)
		d := step(t, dep, iv, rows[i])
		if d.Result.Anomalous {
			alarms[iv] = d
		}
	}
	if len(alarms) == 0 {
		t.Fatal("the spike burst raised no alarm — nothing to audit")
	}

	identified, spikedHits := 0, 0
	recs := readFlightRecords(t, path)
	byInterval := make(map[int64]*FlightRecord, len(recs))
	for i := range recs {
		byInterval[recs[i].Interval] = &recs[i]
	}
	for iv, d := range alarms {
		rec := byInterval[iv]
		if rec == nil {
			t.Fatalf("no flight record for alarm interval %d", iv)
		}
		if d.Identified == nil {
			if len(rec.Identified) != 0 {
				t.Fatalf("interval %d: flight record names %v but the decision carried no identification",
					iv, rec.Identified)
			}
			continue
		}
		if len(rec.Identified) != len(d.Identified.Flows) {
			t.Fatalf("interval %d: flight record names %d culprits, decision %d",
				iv, len(rec.Identified), len(d.Identified.Flows))
		}
		for j, f := range d.Identified.Flows {
			got := rec.Identified[j]
			if got.Flow != f.Flow || got.Amount != f.Amount || got.Confidence != f.Confidence {
				t.Fatalf("interval %d culprit %d: flight record %+v, decision %+v", iv, j, got, f)
			}
		}
		if rec.IdentifyExplained != d.Identified.ExplainedFrac || rec.IdentifyStop != d.Identified.Stop {
			t.Fatalf("interval %d: flight record explained=%v stop=%q, decision %v/%q",
				iv, rec.IdentifyExplained, rec.IdentifyStop, d.Identified.ExplainedFrac, d.Identified.Stop)
		}
		if len(d.Identified.Flows) == 0 {
			continue
		}
		identified++
		// Count intervals whose culprits include a flow spiked at that
		// interval ((2k)%m and (2k+1)%m for k = interval-1-spikeAt). A later
		// alarm may instead finger an earlier spike's direction left over in
		// the refreshed model, so the hit is asserted in aggregate below.
		k := int(iv-1) - spikeAt
		want := map[int]bool{(2 * k) % testFlows: true, (2*k + 1) % testFlows: true}
		for _, f := range d.Identified.Flows {
			if want[f.Flow] {
				spikedHits++
				break
			}
		}
	}
	if identified == 0 {
		t.Fatal("no alarm carried a non-empty identification — the audit is vacuous")
	}
	if spikedHits == 0 {
		t.Error("no identification named a flow spiked at its own interval")
	}
}

// TestFlightRecordJSON pins a flight record's JSON keys, the per-flow list
// included: the records are read offline, so the keys are a format.
func TestFlightRecordJSON(t *testing.T) {
	rec := FlightRecord{
		Kind: "noc.decision", Trace: 0x2a, Interval: 7, UnixNanos: 1,
		SPE: 3.5, Threshold: 2, Anomalous: true, Degraded: false,
		Identified:        []core.IdentifiedFlow{{Flow: 4, Amount: 250, Confidence: 0.5}},
		IdentifyExplained: 0.5, IdentifyStop: "threshold",
		Monitors: []FlightMonitor{{ID: "m", Flows: 9, SketchInterval: 6, SketchAge: 1}},
	}
	got, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"noc.decision","trace":"000000000000002a","interval":7,"unix_ns":1,` +
		`"spe":3.5,"threshold":2,"anomalous":true,"degraded":false,` +
		`"identified":[{"flow":4,"amount":250,"confidence":0.5}],` +
		`"identify_explained":0.5,"identify_stop":"threshold",` +
		`"monitors":[{"id":"m","flows":9,"sketch_interval":6,"sketch_age":1}]}`
	if string(got) != want {
		t.Fatalf("flight record JSON\n got %s\nwant %s", got, want)
	}
}

// TestFederatedIdentificationMatchesFlat extends the federated correctness
// bar to the identification path: the pursuit consumes only the in-force
// model and the assembled measurement vector, both byte-identical between
// the flat 6-monitor topology and 3 aggregators × 6 monitors (sketch
// linearity, Theorem 1) — so the identified culprit sets, amounts,
// confidences and stop reasons must match exactly too.
func TestFederatedIdentificationMatchesFlat(t *testing.T) {
	const n = testWindow + 40
	rows := genRows(n, testFlows, n-4)

	run := func(federated bool) []Decision {
		topo := Topology{Monitors: 6}
		if federated {
			topo.Aggregators, topo.Agg = 3, testAgg
		}
		dep := deploy(t, nocConfig(), topo)
		out := make([]Decision, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, step(t, dep, int64(i+1), rows[i]))
		}
		dep.Close()
		return out
	}

	flat := run(false)
	fed := run(true)

	withCulprits := 0
	for i := range flat {
		f, g := flat[i], fed[i]
		if f.Result.Anomalous != g.Result.Anomalous || f.Result.Distance != g.Result.Distance {
			t.Fatalf("interval %d: decisions diverged before identification:\n flat %+v\n fed  %+v",
				f.Interval, f.Result, g.Result)
		}
		if !reflect.DeepEqual(f.Identified, g.Identified) {
			t.Fatalf("interval %d: identifications diverged:\n flat %+v\n fed  %+v",
				f.Interval, f.Identified, g.Identified)
		}
		if f.Identified != nil && len(f.Identified.Flows) > 0 {
			withCulprits++
		}
	}
	if withCulprits == 0 {
		t.Fatal("no interval produced a non-empty identification — the differential is vacuous")
	}
}
