package traffic

import (
	"math"
	"strings"
	"testing"
)

// FuzzReadCSV asserts the trace parser's contract on arbitrary text:
// malformed headers, field-count mismatches, bad numbers, volumes that are
// no whole bytes, and bogus labels must return an error — never panic — and
// whatever parses must have internally consistent dimensions and whole-byte
// volumes.
func FuzzReadCSV(f *testing.F) {
	f.Add("interval,f0,f1\n0,1,2\n1,3,4\n")
	f.Add("interval,A→B,B→A,label\n0,1,2,0\n1,3,4,1\n")
	f.Add("interval,f0\n# comment\n\n0,5\n")
	f.Add("interval\n0\n")
	f.Add("interval,f0\n0,NaN\n")
	f.Add("interval,f0\n0,-1\n")
	f.Add("interval,f0,f1\n0,1,2.5\n")
	f.Add("interval,f0,label\n0,1,2\n")
	f.Add("not,a,header\n0,1,2\n")
	f.Add("")

	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		// Accepted traces must be dimensionally coherent.
		if tr.NumIntervals() <= 0 || tr.NumFlows() <= 0 {
			t.Fatalf("accepted trace with %d intervals × %d flows", tr.NumIntervals(), tr.NumFlows())
		}
		if len(tr.FlowNames) != tr.NumFlows() {
			t.Fatalf("%d flow names for %d flows", len(tr.FlowNames), tr.NumFlows())
		}
		if labels := tr.Labels(); len(labels) != tr.NumIntervals() {
			t.Fatalf("%d labels for %d intervals", len(labels), tr.NumIntervals())
		}
		if n := len(tr.RouterNames); n > 0 && n*n != tr.NumFlows() {
			t.Fatalf("recovered %d routers for %d flows", n, tr.NumFlows())
		}
		for i := range tr.NumIntervals() {
			for _, v := range tr.Volumes.RowView(i) {
				if v < 0 || v != math.Trunc(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted volume %v", v)
				}
			}
		}
	})
}
