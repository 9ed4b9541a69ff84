package pathload_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestStoreDoesNotLinkSimulator: the store side of the system — the
// time-series store, the archive, the coordinator and the archive tool
// — keeps and serves measurements and simulates nothing, so it must
// not link the simulator. The test follows import declarations from
// source (every non-test file, whatever its build constraints), so it
// needs no build, no module cache and no network, and names the import
// chain that breaks the rule.
func TestStoreDoesNotLinkSimulator(t *testing.T) {
	const module = "repro"
	simulator := []string{module + "/internal/netsim", module + "/internal/eventq"}
	fset := token.NewFileSet()
	imports := func(pkg string) []string {
		dir := "." + strings.TrimPrefix(pkg, module)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s: no Go files in %s (%v)", pkg, dir, err)
		}
		var out []string
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if path == module || strings.HasPrefix(path, module+"/") {
					out = append(out, path)
				}
			}
		}
		return out
	}
	for _, root := range []string{
		module + "/internal/tsstore",
		module + "/internal/archive",
		module + "/internal/coord",
		module + "/cmd/pathload-archive",
	} {
		// Breadth first, remembering who imported whom for the message.
		via := map[string]string{root: ""}
		for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
			pkg := queue[0]
			if slices.Contains(simulator, pkg) {
				chain := pkg
				for p := via[pkg]; p != ""; p = via[p] {
					chain = p + " → " + chain
				}
				t.Errorf("%s links the simulator: %s", root, chain)
				break
			}
			for _, imp := range imports(pkg) {
				if _, seen := via[imp]; !seen {
					via[imp] = pkg
					queue = append(queue, imp)
				}
			}
		}
	}
}
