package streampca

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestREADMEFlagTablesMatchBinaries keeps README's flag tables equal to the
// three daemons' command lines as pinned by their help.golden files: every
// flag a daemon registers has a table row, and every flag a table row names
// is one some daemon registers.
func TestREADMEFlagTablesMatchBinaries(t *testing.T) {
	goldens, err := filepath.Glob("cmd/*/testdata/help.golden")
	if err != nil || len(goldens) != 3 {
		t.Fatalf("help.golden files: %v, %v; want the three daemons'", goldens, err)
	}
	registered := map[string]bool{}
	helpFlag := regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`)
	for _, g := range goldens {
		b, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range helpFlag.FindAllStringSubmatch(string(b), -1) {
			registered[m[1]] = true
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// A flag-table row is a table line whose first cell names flags in
	// backticks; the other cells may mention flags freely.
	documented := map[string]bool{}
	cellFlag := regexp.MustCompile("`-([a-z][a-z0-9-]*)`")
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		first := strings.SplitN(line, "|", 3)[1]
		for _, m := range cellFlag.FindAllStringSubmatch(first, -1) {
			documented[m[1]] = true
		}
	}

	var missing, stale []string
	for f := range registered {
		if !documented[f] {
			missing = append(missing, "-"+f)
		}
	}
	for f := range documented {
		if !registered[f] {
			stale = append(stale, "-"+f)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("flags in a help.golden with no README table row: %s", strings.Join(missing, " "))
	}
	if len(stale) > 0 {
		t.Errorf("flags in a README table row that no daemon registers: %s", strings.Join(stale, " "))
	}
}
