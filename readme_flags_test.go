package streampca

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"streampca/internal/agg"
	"streampca/internal/core"
	"streampca/internal/ingest"
	"streampca/internal/monitor"
	"streampca/internal/noc"
	"streampca/internal/obs"
	"streampca/internal/randproj"
	"streampca/internal/transport"
)

// TestREADMEFlagTablesMatchBinaries keeps README's flag tables equal to the
// three daemons' command lines as pinned by their help.golden files: every
// flag a daemon registers has a table row, and every flag a table row names
// is one its daemons register. A row's daemons are those its first cell names
// in parentheses — "(noc, monitor)", "(`sketchpca-monitor`)"; names that are
// no daemon, like `examples/distributed`, are skipped — else sketchpca-agg
// for a row of the "Federated deployment" table, else any daemon.
func TestREADMEFlagTablesMatchBinaries(t *testing.T) {
	goldens, err := filepath.Glob("cmd/*/testdata/help.golden")
	if err != nil || len(goldens) != 3 {
		t.Fatalf("help.golden files: %v, %v; want the three daemons'", goldens, err)
	}
	registered := map[string]bool{}
	byDaemon := map[string]map[string]bool{} // "noc", "agg", "monitor"
	helpFlag := regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`)
	for _, g := range goldens {
		b, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		daemon := map[string]bool{}
		byDaemon[strings.TrimPrefix(filepath.Base(filepath.Dir(filepath.Dir(g))), "sketchpca-")] = daemon
		for _, m := range helpFlag.FindAllStringSubmatch(string(b), -1) {
			registered[m[1]], daemon[m[1]] = true, true
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// A flag-table row is a table line whose first cell names flags in
	// backticks; the other cells may mention flags freely.
	documented := map[string]bool{}
	var stale []string
	cellFlag := regexp.MustCompile("`-([a-z][a-z0-9-]*)`")
	owners := regexp.MustCompile(`\(([^)]*)\)`)
	section, fenced := "", false
	for _, line := range strings.Split(string(readme), "\n") {
		switch {
		case strings.HasPrefix(line, "```"):
			fenced = !fenced
		case !fenced && strings.HasPrefix(line, "#"):
			section = strings.TrimSpace(strings.TrimLeft(line, "#"))
		}
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		first := strings.SplitN(line, "|", 3)[1]
		var daemons []string
		if m := owners.FindStringSubmatch(first); m != nil {
			for _, name := range strings.Split(m[1], ",") {
				name = strings.TrimPrefix(strings.Trim(strings.TrimSpace(name), "`"), "sketchpca-")
				if byDaemon[name] != nil {
					daemons = append(daemons, name)
				}
			}
		} else if strings.HasPrefix(section, "Federated deployment") {
			daemons = []string{"agg"}
		}
		for _, m := range cellFlag.FindAllStringSubmatch(first, -1) {
			f := m[1]
			documented[f] = true
			if len(daemons) == 0 && !registered[f] {
				stale = append(stale, "-"+f)
			}
			for _, d := range daemons {
				if !byDaemon[d][f] {
					stale = append(stale, fmt.Sprintf("-%s (%s)", f, d))
				}
			}
		}
	}

	var missing []string
	for f := range registered {
		if !documented[f] {
			missing = append(missing, "-"+f)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("flags in a help.golden with no README table row: %s", strings.Join(missing, " "))
	}
	if len(stale) > 0 {
		t.Errorf("flags in a README table row that its daemon does not register: %s", strings.Join(stale, " "))
	}
}

// TestREADMEMetricsMatchRegistries keeps README's metric names equal to the
// families the services register: a NOC and a monitor with the self-check
// on, an aggregator, an ingest pipeline and the wire. Every full
// streampca_* name README mentions is registered, and every registered
// family appears in README.
func TestREADMEMetricsMatchRegistries(t *testing.T) {
	reg := obs.NewRegistry()
	nocSvc, err := noc.New(noc.Config{
		Detector:       core.DetectorConfig{NumFlows: 4, WindowLen: 8, SketchLen: 2, Alpha: 0.01},
		SelfCheckEvery: 1,
		Obs:            reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nocSvc.Shutdown()
	aggSvc, err := agg.New(agg.Config{ID: "a", NumFlows: 4, WindowLen: 8, SketchLen: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer aggSvc.Close()
	monSvc, err := monitor.New(monitor.Config{
		ID: "m", FlowIDs: []int{0, 1}, WindowLen: 8, Epsilon: 0.1,
		Sketch:         randproj.Config{SketchLen: 2},
		SelfCheckEvery: 1,
		Obs:            reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer monSvc.Close()
	ingest.NewMetrics(reg)
	transport.NewMetrics(reg)

	var exposition strings.Builder
	if err := reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(exposition.String(), -1) {
		registered[m[1]] = true
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, name := range regexp.MustCompile(`streampca_\w+`).FindAllString(string(readme), -1) {
		if !strings.HasSuffix(name, "_") { // streampca_ingest_* names a prefix
			documented[name] = true
		}
	}

	var missing, stale []string
	for name := range registered {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	for name := range documented {
		if !registered[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("registered metrics README never names: %s", strings.Join(missing, " "))
	}
	if len(stale) > 0 {
		t.Errorf("README names metrics no service registers: %s", strings.Join(stale, " "))
	}
}

// docFiles are the documents the name checks read. EXPERIMENTS.md is a
// history, but a line of it about something since retired names it outside
// backticks, so a backticked name is one that exists.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// backticked returns every backtick span of the documents, each with the
// file:line it starts on.
func backticked(t *testing.T) (spans, where []string) {
	t.Helper()
	span := regexp.MustCompile("`[^`\n]+`")
	for _, doc := range docFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, s := range span.FindAllString(line, -1) {
				spans = append(spans, strings.Trim(s, "`"))
				where = append(where, fmt.Sprintf("%s:%d", doc, i+1))
			}
		}
	}
	return spans, where
}

// expandBraces expands one shell-style {a,b} group per pass.
func expandBraces(p string) []string {
	open := strings.IndexByte(p, '{')
	end := strings.IndexByte(p, '}')
	if open < 0 || end < open {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[open+1:end], ",") {
		out = append(out, expandBraces(p[:open]+alt+p[end+1:])...)
	}
	return out
}

// TestDocsNameExistingPaths: every backticked internal/…, cmd/… or
// examples/… path in docFiles (a package directory or a file in one)
// exists.
func TestDocsNameExistingPaths(t *testing.T) {
	path := regexp.MustCompile(`\b(?:internal|cmd|examples)/(?:[\w{},-]+/)*[\w{},-]+(?:\.go)?`)
	spans, where := backticked(t)
	for i, s := range spans {
		for _, p := range path.FindAllString(s, -1) {
			for _, q := range expandBraces(p) {
				if _, err := os.Stat(q); err != nil {
					t.Errorf("%s: `%s` names %s, which does not exist", where[i], s, q)
				}
			}
		}
	}
}

// TestDocsNameExistingDeclarations: every backticked pkg.Name or
// pkg.Type.Member in docFiles whose pkg is a package of this tree resolves
// to a declaration in its non-test files — a top-level name, then a field or
// method of that type.
func TestDocsNameExistingDeclarations(t *testing.T) {
	// pkgs[name] holds each top-level name and each "Type.Member" of a type's
	// fields and methods.
	pkgs := map[string]map[string]bool{}
	dirs := []string{"."}
	err := filepath.WalkDir("internal", func(p string, e fs.DirEntry, err error) error {
		if err == nil && e.IsDir() {
			dirs = append(dirs, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			names := pkgs[f.Name.Name]
			if names == nil {
				names = map[string]bool{}
				pkgs[f.Name.Name] = names
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil {
						names[decl.Name.Name] = true
						continue
					}
					recv := decl.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						names[id.Name+"."+decl.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								names[n.Name] = true
							}
						case *ast.TypeSpec:
							names[spec.Name.Name] = true
							var fields *ast.FieldList
							switch typ := spec.Type.(type) {
							case *ast.StructType:
								fields = typ.Fields
							case *ast.InterfaceType:
								fields = typ.Methods
							}
							if fields == nil {
								continue
							}
							for _, fl := range fields.List {
								for _, n := range fl.Names {
									names[spec.Name.Name+"."+n.Name] = true
								}
							}
						}
					}
				}
			}
		}
	}

	ref := regexp.MustCompile(`(?:^|[^.\w])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)
	spans, where := backticked(t)
	for i, s := range spans {
		for _, m := range ref.FindAllStringSubmatch(s, -1) {
			names := pkgs[m[1]]
			if names == nil {
				continue // not a package of this tree
			}
			switch {
			case !names[m[2]]:
				t.Errorf("%s: `%s`: package %s declares no %s", where[i], s, m[1], m[2])
			case m[3] != "" && !names[m[2]+"."+m[3]]:
				t.Errorf("%s: `%s`: %s.%s has no field or method %s", where[i], s, m[1], m[2], m[3])
			}
		}
	}
}
