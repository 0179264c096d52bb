package main

import (
	"errors"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/noc"
	"streampca/internal/vh"
)

func TestParseIntList(t *testing.T) {
	tests := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{in: "", want: nil},
		{in: "1,2,3", want: []int{1, 2, 3}},
		{in: " 4 , 5 ", want: []int{4, 5}},
		{in: "1,x", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseIntList(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Fatalf("%q: want error", tt.in)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%q: %v", tt.in, err)
		}
		if len(got) != len(tt.want) {
			t.Fatalf("%q: got %v", tt.in, got)
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Fatalf("%q: got %v, want %v", tt.in, got, tt.want)
			}
		}
	}
}

func TestIsNumeric(t *testing.T) {
	if !isNumeric("3.5") || !isNumeric("-1") || isNumeric("interval") {
		t.Fatal("isNumeric misclassifies")
	}
}

func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		{},                                     // missing -flows
		{"-flows", "bad"},                      // unparseable flows
		{"-flows", "0", "-noc", "127.0.0.1:1"}, // NOC unreachable
	}
	for i, args := range cases {
		if err := run(args, strings.NewReader(""), nil); err == nil {
			t.Fatalf("case %d (%v): want error", i, args)
		}
	}
}

// An ingest-only flag in CSV mode is a mistake the daemon must name, not a
// setting it silently drops.
func TestRunRejectsIngestFlagsWithoutListen(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-interval", "1m"},
		{"-ingest-lateness", "1m"},
		{"-ingest-clock", "wall"},
		{"-routers", "3"},
	} {
		err := run([]string{"-flows", "0", "-noc", "127.0.0.1:1", c.flag, c.value},
			strings.NewReader(""), nil)
		if want := c.flag + " needs -ingest-listen"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s %s on stdin mode: %v, want %q", c.flag, c.value, err, want)
		}
	}
}

// The deployment the CLI tests feed: 4 flows, a window of 8 and l = 6.
const (
	testFlows  = 4
	testWindow = 8
	testSketch = 6
	testSeed   = 5
)

// startNOC serves a NOC for the test deployment and returns its decisions,
// each with its own copy of the Vector the NOC recycles.
func startNOC(t *testing.T) (*noc.Service, <-chan noc.Decision) {
	t.Helper()
	decisions := make(chan noc.Decision, 64)
	svc, err := noc.New(noc.Config{
		Detector: core.DetectorConfig{
			NumFlows: testFlows, WindowLen: testWindow, SketchLen: testSketch,
			Alpha: 0.01, FixedRank: 1,
		},
		Seed:       testSeed,
		OnDecision: func(d noc.Decision) { decisions <- keepVector(d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Shutdown)
	return svc, decisions
}

// keepVector returns d with a copy of its Vector, which is valid only until
// OnDecision returns.
func keepVector(d noc.Decision) noc.Decision {
	d.Vector = slices.Clone(d.Vector)
	return d
}

// csvCell is the test trace's volume of flow f at interval i.
func csvCell(i, f int) int { return 100*(f+1) + i }

// testCSV is a header and n intervals of the 4 flow columns, plus a label
// column the monitor must ignore.
func testCSV(n int) string {
	var sb strings.Builder
	sb.WriteString("interval,f0,f1,f2,f3,label\n")
	for i := 0; i < n; i++ {
		sb.WriteString(itoa(i))
		for f := 0; f < testFlows; f++ {
			sb.WriteString("," + itoa(csvCell(i, f)))
		}
		sb.WriteString(",0\n")
	}
	return sb.String()
}

// startMonitor runs the monitor CLI owning flows against nocAddr, fed csv
// on a pipe that stays open, keeping the monitor connected for the lazy
// sketch pulls, until the returned stop closes it and returns run's error.
func startMonitor(t *testing.T, nocAddr, id, flows, csv string) (stop func() error) {
	t.Helper()
	pr, pw := io.Pipe()
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{
			"-noc", nocAddr,
			"-id", id,
			"-flows", flows,
		}, pr, nil)
	}()
	go func() { _, _ = pw.Write([]byte(csv)) }()
	return func() error {
		_ = pw.Close()
		return <-runErr
	}
}

// awaitDecisions collects n decisions or fails the test.
func awaitDecisions(t *testing.T, decisions <-chan noc.Decision, n int) []noc.Decision {
	t.Helper()
	var got []noc.Decision
	deadline := time.After(5 * time.Second)
	for len(got) < n {
		select {
		case d := <-decisions:
			got = append(got, d)
		case <-deadline:
			t.Fatalf("only %d/%d decisions arrived", len(got), n)
		}
	}
	return got
}

// End-to-end CLI glue: a real NOC service, the monitor run() fed CSV on a
// reader, decisions observed at the NOC.
func TestRunFeedsNOC(t *testing.T) {
	svc, decisions := startNOC(t)
	stop := startMonitor(t, svc.Addr(), "cli-test", "0,1,2,3", testCSV(20))
	// All 20 intervals must produce decisions (warm-up + detections).
	awaitDecisions(t, decisions, 20)
	if !svc.HasModel() {
		t.Fatal("NOC never built a model from the CLI monitor")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// CSV column f feeds flow f: two monitors owning interleaved flows read the
// same CSV, and the NOC's assembled vectors hold each column at its flow.
func TestRunReadsColumnsByFlowID(t *testing.T) {
	svc, decisions := startNOC(t)
	const n = 12
	csv := testCSV(n)
	stopOdd := startMonitor(t, svc.Addr(), "odd", "1,3", csv)
	stopEven := startMonitor(t, svc.Addr(), "even", "0,2", csv)
	for _, d := range awaitDecisions(t, decisions, n) {
		i := int(d.Interval - 1) // intervals are 1-based on the wire
		for _, f := range []int{1, 3} {
			if want := float64(csvCell(i, f)); d.Vector[f] != want {
				t.Errorf("interval %d: Vector[%d] = %v, want CSV column %d's %v", i, f, d.Vector[f], f, want)
			}
		}
	}
	for _, stop := range []func() error{stopOdd, stopEven} {
		if err := stop(); err != nil {
			t.Fatal(err)
		}
	}
}

// A NaN, Inf, fractional or too large cell parses as a float; the CSV loop
// must refuse it by line and column (vh.CheckVolume) instead of handing it to
// the sketch state, and fail on a cell past 2⁵³/n at the adopted window
// (2⁵⁰ at n = 8), which the sketch state refuses, instead of shedding it.
func TestRunRejectsNonFiniteCell(t *testing.T) {
	svc, err := noc.New(noc.Config{
		Detector: core.DetectorConfig{NumFlows: 2, WindowLen: 8, SketchLen: 4, Alpha: 0.01, FixedRank: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	for _, cell := range []string{"NaN", "+Inf", "12.5", "9007199254740992", "1125899906842624"} {
		in := strings.NewReader("0,10,20\n1,11," + cell + "\n")
		err := run([]string{"-noc", svc.Addr(), "-flows", "0,1"}, in, nil)
		if !errors.Is(err, vh.ErrVolume) || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("cell %s: got %v, want a line 2 vh.ErrVolume", cell, err)
		}
	}
}

func itoa(v int) string { return strconv.Itoa(v) }
