// Package helptest pins a daemon's -h output against a golden file.
package helptest

import (
	"errors"
	"flag"
	"io"
	"os"
	"testing"
)

// Golden runs the daemon's entry point with -h and compares what the flag
// package printed — every flag's name, default and help string — with
// testdata/help.golden, so moving flag registration around (internal/cliflags)
// cannot change the command line. run must return the FlagSet's parse error.
func Golden(t *testing.T, run func(args []string) error) {
	t.Helper()
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	// The flag package prints usage to os.Stderr; lend it a pipe.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	runErr := run([]string{"-h"})
	os.Stderr = stderr
	_ = w.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(runErr, flag.ErrHelp) {
		t.Fatalf("run -h: %v, want flag.ErrHelp", runErr)
	}
	if string(got) != string(want) {
		t.Errorf("-h output changed.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
