package pathload_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestPublicSurface pins package pathload's exported API: every exported
// constant, variable, type, function and method, every field of an
// exported struct and every method of an exported interface, read from
// the package's non-test sources. A knob added to Config or
// MonitorConfig, or a symbol removed, fails here by name; go test -run
// PublicSurface -update rewrites testdata/surface.golden.
func TestPublicSurface(t *testing.T) {
	got := publicSurface(t)
	golden := filepath.Join("testdata", "surface.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to capture it)", err)
	}
	if got != string(want) {
		t.Errorf("public API surface changed; diff it against %s, and -update if the change is meant:\n%s", golden, got)
	}
}

// publicSurface renders the exported declarations of the package in
// the current directory, one sorted line each.
func publicSurface(t *testing.T) string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				sig := strings.TrimPrefix(types.ExprString(d.Type), "func")
				if d.Recv == nil {
					add("func %s%s", d.Name.Name, sig)
					continue
				}
				recv := strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*")
				if ast.IsExported(recv) {
					add("method %s.%s%s", recv, d.Name.Name, sig)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								add("%s %s", d.Tok, n.Name)
							}
						}
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							addType(add, s)
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// addType renders one exported type: its underlying type (or alias
// target) and, for structs and interfaces, every field or method.
func addType(add func(string, ...any), s *ast.TypeSpec) {
	name := s.Name.Name
	switch u := s.Type.(type) {
	case *ast.StructType:
		add("type %s struct", name)
		for _, f := range u.Fields.List {
			typ := types.ExprString(f.Type)
			if len(f.Names) == 0 {
				add("field %s.%s (embedded)", name, typ)
			}
			for _, n := range f.Names {
				if n.IsExported() {
					add("field %s.%s %s", name, n.Name, typ)
				}
			}
		}
	case *ast.InterfaceType:
		add("type %s interface", name)
		for _, m := range u.Methods.List {
			for _, n := range m.Names {
				add("method %s.%s%s", name, n.Name, strings.TrimPrefix(types.ExprString(m.Type), "func"))
			}
		}
	default:
		if s.Assign.IsValid() {
			add("type %s = %s", name, types.ExprString(s.Type))
		} else {
			add("type %s %s", name, types.ExprString(s.Type))
		}
	}
}
