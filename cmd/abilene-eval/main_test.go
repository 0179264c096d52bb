package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"streampca/internal/traffic"
)

func TestRunRequiresWork(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Fatal("no -figure/-bounds must fail")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-figure", "12"}, &buf); err == nil {
		t.Fatal("unknown figure must fail")
	}
}

func TestFigure5Output(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-figure", "5"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# Figure 5") {
		t.Fatal("missing figure header")
	}
	if !strings.Contains(out, "ATLA→CHIC") {
		t.Fatal("missing flow names")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 50 {
		t.Fatalf("only %d lines", len(lines))
	}
	// Data rows have 5 comma-separated fields.
	fields := strings.Split(lines[3], ",")
	if len(fields) != 5 {
		t.Fatalf("row = %q", lines[3])
	}
}

func TestFigure10Output(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-figure", "10"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# Figure 10") {
		t.Fatal("missing header")
	}
	if !strings.Contains(out, "l,lakhina_ops_1min") {
		t.Fatal("missing column header")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2+7 { // two headers + seven sketch lengths
		t.Fatalf("lines = %d", len(lines))
	}
}

// writeTraceCSV renders tr in the trafficgen CSV format and returns the
// file's path.
func writeTraceCSV(t *testing.T, tr *traffic.Trace) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("interval")
	for _, n := range tr.FlowNames {
		sb.WriteString("," + n)
	}
	sb.WriteString("\n")
	for i := 0; i < tr.NumIntervals(); i++ {
		sb.WriteString(strconv.Itoa(i))
		for j := 0; j < tr.NumFlows(); j++ {
			sb.WriteString("," + strconv.FormatFloat(tr.Volumes.At(i, j), 'f', 0, 64))
		}
		sb.WriteString("\n")
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTraceReplay(t *testing.T) {
	// Generate a small CSV with the traffic substrate and replay it
	// through the figure-9 pipeline.
	tr, err := traffic.Generate(traffic.GeneratorConfig{NumIntervals: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.InjectCoordinated([]int{1, 5, 9}, 40, 44, 1.5); err != nil {
		t.Fatal(err)
	}
	path := writeTraceCSV(t, tr)

	var buf bytes.Buffer
	if err := run([]string{"-figure", "9", "-trace", path, "-trace-window", "20"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "5min,10,") {
		t.Fatalf("missing sweep rows in output:\n%s", buf.String())
	}

	// -trace is rejected without a window, with an unreadable path, and with
	// any mode that builds its own trace and would silently ignore the file.
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"no window", []string{"-figure", "9", "-trace", path}, "-trace-window"},
		{"missing file", []string{"-figure", "9", "-trace", "/nonexistent", "-trace-window", "20"}, "/nonexistent"},
		{"figure 5", []string{"-figure", "5", "-trace", path, "-trace-window", "20"}, traceModes},
		{"figure 10", []string{"-figure", "10", "-trace", path, "-trace-window", "20"}, traceModes},
		{"figure all", []string{"-figure", "all", "-trace", path, "-trace-window", "20"}, traceModes},
		{"bounds", []string{"-bounds", "-trace", path, "-trace-window", "20"}, traceModes},
		{"oracle", []string{"-oracle", "-trace", path, "-trace-window", "20"}, traceModes},
		{"identify", []string{"-identify", "-trace", path, "-trace-window", "20"}, traceModes},
		{"replayable mode beside one that is not", []string{"-figure", "9", "-identify", "-trace", path, "-trace-window", "20"}, traceModes},
	} {
		buf.Reset()
		err := run(tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
		if tc.want == traceModes && buf.Len() != 0 {
			t.Errorf("%s: printed %d bytes before rejecting the flags", tc.name, buf.Len())
		}
	}
}

func TestShootoutReport(t *testing.T) {
	// Replay a small trace so the shoot-out completes quickly; 3
	// monitors split the 81 flows evenly, which lets the FD variant default
	// its basis budget ℓ.
	tr, err := traffic.Generate(traffic.GeneratorConfig{NumIntervals: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.InjectCoordinated([]int{1, 5, 9}, 90, 94, 1.5); err != nil {
		t.Fatal(err)
	}
	path := writeTraceCSV(t, tr)

	var buf bytes.Buffer
	args := []string{"-shootout", "-trace", path, "-trace-window", "40",
		"-monitors", "3", "-shootout-sketch", "16"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# Shoot-out") || !strings.Contains(out, "variant,sketch_param,") {
		t.Fatalf("missing headers in:\n%s", out)
	}
	for _, variant := range []string{"randproj,16,", "fd,"} {
		if !strings.Contains(out, "\n"+variant) {
			t.Fatalf("missing %q row in:\n%s", variant, out)
		}
	}

	// 4 monitors cannot split 81 flows evenly: the FD variant must refuse
	// to guess a shared ℓ.
	if err := run([]string{"-shootout", "-trace", path, "-trace-window", "40",
		"-monitors", "4"}, &buf); err == nil {
		t.Fatal("uneven FD split must fail")
	}
}

func TestCommReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-comm"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"observations,", "fetches,", "lazy_sketch_bytes,", "savings_factor,"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSurfaceDims(t *testing.T) {
	p := params{}
	perDay, window, total, ls := surfaceDims(p, false)
	if perDay != 288 || window <= 0 || total <= window || len(ls) == 0 {
		t.Fatalf("scaled dims = %d %d %d %v", perDay, window, total, ls)
	}
	p.full = true
	perDay, window, total, ls = surfaceDims(p, true)
	if perDay != 1440 || window != 14*1440 || total != 30*1440 || len(ls) != 40 {
		t.Fatalf("full dims = %d %d %d (%d ls)", perDay, window, total, len(ls))
	}
}
