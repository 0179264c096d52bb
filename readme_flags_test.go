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

// docFiles are the documents that describe the tree as it is; EXPERIMENTS.md
// is a history and may name what has since gone.
var docFiles = []string{"README.md", "DESIGN.md"}

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

// TestDocsNameExistingPaths: every backticked internal/… path in README.md
// and DESIGN.md (a package directory or a file in one) exists.
func TestDocsNameExistingPaths(t *testing.T) {
	path := regexp.MustCompile(`internal/(?:[\w{},]+/)*[\w{},]+(?:\.go)?`)
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
// pkg.Type.Member in README.md and DESIGN.md whose pkg is a package of this
// tree resolves to a declaration in its non-test files — a top-level name,
// then a field or method of that type.
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
