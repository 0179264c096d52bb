package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from what run prints now")

// goldenModes are the deterministic modes at default flags and seed. The
// slow ones take seconds each, so `go test` (and with it the -race pass)
// skips them: ci.sh compares them once against the same files from a built
// binary, and -update regenerates all nine. Fig. 10 prints timings and has no
// golden.
var goldenModes = []struct {
	name string
	args []string
	slow bool
}{
	{"fig5", []string{"-figure", "5"}, false},
	{"fig7", []string{"-figure", "7"}, false},
	{"bounds", []string{"-bounds"}, false},
	{"comm", []string{"-comm"}, false},
	{"identify", []string{"-identify"}, false},
	{"shootout", []string{"-shootout"}, false},
	{"fig8", []string{"-figure", "8"}, true},
	{"fig9", []string{"-figure", "9"}, true},
	{"oracle", []string{"-oracle"}, true},
}

// TestGoldenOutputs holds every mode's stdout to the byte. The first line of
// a golden names the architecture it was recorded on: Go fuses multiply-adds
// on arm64 (and others), which moves low-order float bits and with them the
// printed digits, so a golden only binds the architecture that wrote it.
func TestGoldenOutputs(t *testing.T) {
	header := "# GOARCH " + runtime.GOARCH + "\n"
	for _, tc := range goldenModes {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && !*update {
				t.Skip("multi-second mode: ci.sh compares it once, outside -race")
			}
			path := filepath.Join("testdata", tc.name+".golden")
			var want string
			if !*update {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				want = string(b)
				if !strings.HasPrefix(want, header) {
					t.Skipf("%s was recorded on %q, this is %s: fused multiply-adds print different digits",
						path, strings.SplitN(want, "\n", 2)[0], runtime.GOARCH)
				}
			}
			var buf bytes.Buffer
			if err := run(tc.args, &buf); err != nil {
				t.Fatal(err)
			}
			got := header + blankColumn(buf.String(), "retrain_ms")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if got == want {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := range gl {
				if i >= len(wl) || gl[i] != wl[i] {
					w := "<end of file>"
					if i < len(wl) {
						w = wl[i]
					}
					t.Fatalf("%s line %d:\n got  %s\n want %s\n(rerun with -update if the change is intended)", path, i+1, gl[i], w)
				}
			}
			t.Fatalf("%s: output ends %d lines early", path, len(wl)-len(gl))
		})
	}
}

// blankColumn empties the named CSV column (a wall-clock measurement) in
// every data row below the header line that declares it; output without such
// a column comes back unchanged.
func blankColumn(out, column string) string {
	lines := strings.Split(out, "\n")
	idx := -1
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if idx < 0 {
			for j, f := range fields {
				if f == column {
					idx = j
				}
			}
			continue
		}
		if idx < len(fields) {
			fields[idx] = ""
			lines[i] = strings.Join(fields, ",")
		}
	}
	return strings.Join(lines, "\n")
}
