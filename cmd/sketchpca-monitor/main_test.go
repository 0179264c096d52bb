package main

import (
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"streampca/internal/core"
	"streampca/internal/noc"
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
		{"-flows", "0,1", "-columns", "0"},     // count mismatch
		{"-flows", "bad"},                      // unparseable flows
		{"-flows", "0", "-columns", "x"},       // unparseable columns
		{"-flows", "0", "-noc", "127.0.0.1:1"}, // NOC unreachable
	}
	for i, args := range cases {
		args = append(args, "-dial-timeout", "50ms")
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
		err := run([]string{"-flows", "0", "-noc", "127.0.0.1:1", "-dial-timeout", "50ms", c.flag, c.value},
			strings.NewReader(""), nil)
		if want := c.flag + " needs -ingest-listen"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s %s on stdin mode: %v, want %q", c.flag, c.value, err, want)
		}
	}
}

// End-to-end CLI glue: a real NOC service, the monitor run() fed CSV on a
// reader, decisions observed at the NOC.
func TestRunFeedsNOC(t *testing.T) {
	const (
		flows  = 4
		window = 8
		sketch = 6
		seed   = 5
	)
	decisions := make(chan noc.Decision, 64)
	svc, err := noc.New(noc.Config{
		Detector: core.DetectorConfig{
			NumFlows: flows, WindowLen: window, SketchLen: sketch,
			Alpha: 0.01, FixedRank: 1,
		},
		Seed:       seed,
		OnDecision: func(d noc.Decision) { decisions <- d },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()

	// CSV with a header and 20 intervals of 4 columns (+ a label column the
	// monitor must ignore via -columns). The pipe stays open until the NOC
	// has delivered every decision, keeping the monitor connected for the
	// lazy sketch pulls.
	pr, pw := io.Pipe()
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{
			"-noc", svc.Addr(),
			"-id", "cli-test",
			"-flows", "0,1,2,3",
			"-columns", "0,1,2,3",
			"-window", itoa(window),
			"-sketch", itoa(sketch),
			"-seed", itoa(seed),
		}, pr, nil)
	}()
	var sb strings.Builder
	sb.WriteString("interval,f0,f1,f2,f3,label\n")
	for i := 0; i < 20; i++ {
		sb.WriteString(strings.Join([]string{
			itoa(i),
			ftoa(100 + i), ftoa(200 + i), ftoa(300 + i), ftoa(400 + i),
			"0",
		}, ","))
		sb.WriteByte('\n')
	}
	if _, err := pw.Write([]byte(sb.String())); err != nil {
		t.Fatal(err)
	}

	// All 20 intervals must produce decisions (warm-up + detections).
	seen := 0
	deadline := time.After(5 * time.Second)
	for seen < 20 {
		select {
		case <-decisions:
			seen++
		case <-deadline:
			t.Fatalf("only %d/20 decisions arrived", seen)
		}
	}
	if !svc.HasModel() {
		t.Fatal("NOC never built a model from the CLI monitor")
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
}

// A NaN or Inf cell parses as a float; the CSV loop must refuse it by line
// and column instead of handing it to the sketch state.
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
	for _, cell := range []string{"NaN", "+Inf"} {
		in := strings.NewReader("0,10,20\n1,11," + cell + "\n")
		err := run([]string{"-noc", svc.Addr(), "-flows", "0,1", "-window", "8", "-sketch", "4"}, in, nil)
		if err == nil || !strings.Contains(err.Error(), "line 2 column 1: non-finite") {
			t.Fatalf("cell %s: got %v, want a line 2 column 1 non-finite error", cell, err)
		}
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

func ftoa(v int) string { return strconv.Itoa(v) }
