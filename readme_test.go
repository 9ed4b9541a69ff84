package pathload_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// readmeDocs are the documents whose example references must resolve.
var readmeDocs = []string{"README.md", "docs/ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"}

var (
	exampleDirRef  = regexp.MustCompile(`\bexamples/([A-Za-z0-9_]+)`)
	exampleFuncRef = regexp.MustCompile(`\bExample[A-Z_]\w*`)
	exampleFuncDef = regexp.MustCompile(`(?m)^func (Example\w*)\(\)`)
)

// TestReadmeExamples: every examples/<name> the documents mention is a
// directory holding a main package, and every Example function they
// name is defined in some _test.go file of the module, so a removed or
// renamed example cannot stay documented.
func TestReadmeExamples(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range exampleFuncDef.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !defined["ExampleRun"] {
		t.Fatal("ExampleRun not found: the walk over _test.go files is broken")
	}

	for _, doc := range readmeDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range exampleDirRef.FindAllStringSubmatch(string(text), -1) {
			if !isMainPackage(t, filepath.Join("examples", m[1])) {
				t.Errorf("%s mentions %s, which is not a main package", doc, m[0])
			}
		}
		for _, name := range exampleFuncRef.FindAllString(string(text), -1) {
			if !defined[name] {
				t.Errorf("%s names %s, which no _test.go file defines", doc, name)
			}
		}
	}
}

// isMainPackage reports whether dir holds a non-test Go file of
// package main.
func isMainPackage(t *testing.T, dir string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		if file.Name.Name == "main" {
			return true
		}
	}
	return false
}
