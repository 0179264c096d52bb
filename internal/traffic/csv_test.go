package traffic

import (
	"errors"
	"math"
	"strings"
	"testing"
)

const sampleCSV = `interval,A→A,A→B,B→A,B→B,label
0,10,20,30,40,0
1,11,21,31,41,1
2,12,22,32,42,0
`

func TestReadCSVBasic(t *testing.T) {
	tr, err := ReadCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumIntervals() != 3 || tr.NumFlows() != 4 {
		t.Fatalf("shape = %dx%d", tr.NumIntervals(), tr.NumFlows())
	}
	if tr.Volumes.At(1, 2) != 31 {
		t.Fatalf("volume(1,2) = %v", tr.Volumes.At(1, 2))
	}
	labels := tr.Labels()
	if labels[0] || !labels[1] || labels[2] {
		t.Fatalf("labels = %v", labels)
	}
	if len(tr.RouterNames) != 2 || tr.RouterNames[0] != "A" || tr.RouterNames[1] != "B" {
		t.Fatalf("routers = %v", tr.RouterNames)
	}
	// Baseline means are column averages.
	base, err := tr.BaselineMean(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base-11) > 1e-12 {
		t.Fatalf("baseline = %v", base)
	}
	// Injection helpers work on loaded traces and extend the labels.
	if err := tr.InjectSpike(1, 2, 3, 1.0); err != nil {
		t.Fatal(err)
	}
	labels = tr.Labels()
	if !labels[1] || !labels[2] {
		t.Fatalf("labels after injection = %v", labels)
	}
}

func TestReadCSVNoLabel(t *testing.T) {
	in := "interval,f1,f2\n0,5,6\n1,7,8\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumFlows() != 2 {
		t.Fatalf("flows = %d", tr.NumFlows())
	}
	for _, l := range tr.Labels() {
		if l {
			t.Fatal("unlabeled trace must have no anomalies")
		}
	}
	if tr.RouterNames != nil {
		t.Fatalf("non-OD flow names must not recover routers: %v", tr.RouterNames)
	}
}

func TestReadCSVSkipsCommentsAndBlank(t *testing.T) {
	in := "interval,f1\n# a comment\n\n0,5\n1,6\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumIntervals() != 2 {
		t.Fatalf("intervals = %d", tr.NumIntervals())
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                               // empty
		"wrong,f1\n0,5\n",                // bad header
		"interval\n",                     // no flows
		"interval,f1\n0\n",               // short row
		"interval,f1\n0,abc\n",           // bad volume
		"interval,f1\n0,-5\n",            // negative volume
		"interval,f1\n0,5.5\n",           // fractional volume
		"interval,f1,label\n0,5,maybe\n", // bad label
		"interval,f1\n",                  // no data rows
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); !errors.Is(err, ErrCSV) {
			t.Fatalf("case %d: want ErrCSV, got %v", i, err)
		}
	}
}

func TestReadCSVRoundTripsGeneratedTrace(t *testing.T) {
	// Generated trace → WriteCSV → ReadCSV recovers volumes, names and
	// labels.
	src, err := Generate(GeneratorConfig{
		Routers: []string{"X", "Y", "Z"}, NumIntervals: 12, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.InjectSpike(2, 5, 7, 2); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, src); err != nil {
		t.Fatal(err)
	}
	labels := src.Labels()
	got, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumFlows() != 9 || got.NumIntervals() != 12 {
		t.Fatalf("shape = %dx%d", got.NumIntervals(), got.NumFlows())
	}
	if len(got.RouterNames) != 3 {
		t.Fatalf("routers = %v", got.RouterNames)
	}
	gotLabels := got.Labels()
	for i := range labels {
		if labels[i] != gotLabels[i] {
			t.Fatalf("label %d mismatch", i)
		}
	}
	// Volumes agree to the integer formatting used in the CSV.
	for i := 0; i < 12; i++ {
		for j := 0; j < 9; j++ {
			if math.Abs(got.Volumes.At(i, j)-src.Volumes.At(i, j)) > 1 {
				t.Fatalf("volume (%d,%d) drifted", i, j)
			}
		}
	}
}
