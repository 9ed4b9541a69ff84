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
	"unicode"
)

// readmeDocs are the documents whose references must resolve.
var readmeDocs = []string{"README.md", "docs/ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"}

var (
	exampleDirRef = regexp.MustCompile(`\bexamples/([A-Za-z0-9_]+)`)
	testFuncRef   = regexp.MustCompile(`\b(?:Test|Fuzz|Example|Benchmark)[A-Z_]\w*`)
	testFuncDef   = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example|Benchmark)\w*)\(`)
	goldenRef     = regexp.MustCompile(`(?:[\w./-]*\{[\w,]+\}|[\w./-]*\w)\.golden\b`)
	internalRef   = regexp.MustCompile(`\binternal/[a-z0-9_]+(?:/[\w.-]+)*`)
	ciStepRef     = regexp.MustCompile("CI's\\s+`([^`]+)`\\s+step")
	ciStepOther   = regexp.MustCompile("CI step\\s+[\"`]")
	ciStepDef     = regexp.MustCompile(`(?m)^\s*- name: (.+)$`)
	anchorLink    = regexp.MustCompile(`\]\(([^)\s#]*)#([^)\s]+)\)`)
)

// TestDocReferences: every examples/<name> the documents mention is a
// directory holding a main package, every Test, Fuzz, Example or
// Benchmark function they name is defined in some _test.go file of the
// module, every *.golden file they name exists (a name without a
// directory, or with only part of one, matches the end of a path),
// every internal/<pkg> path they name exists, every CI step they cite
// (as CI's `name` step, the one spelling) is a step of the workflow,
// and every link to a heading (file.md#anchor) resolves by GitHub's
// slug rule, so a removed or renamed test, golden, package, step or
// heading cannot stay documented.
func TestDocReferences(t *testing.T) {
	defined := map[string]bool{}
	var goldens []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".golden") {
			goldens = append(goldens, filepath.ToSlash(path))
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncDef.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !defined["ExampleRun"] || !defined["TestDocReferences"] || len(goldens) == 0 {
		t.Fatal("ExampleRun, TestDocReferences or the goldens not found: the walk over the module is broken")
	}
	workflow, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string]bool{}
	for _, m := range ciStepDef.FindAllStringSubmatch(string(workflow), -1) {
		steps[strings.TrimSpace(m[1])] = true
	}
	if !steps["Allocation gates"] {
		t.Fatal("no Allocation gates step found: the workflow parse is broken")
	}
	goldenExists := func(ref string) bool {
		for _, g := range goldens {
			if g == ref || strings.HasSuffix(g, "/"+ref) {
				return true
			}
		}
		return false
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
		for _, name := range testFuncRef.FindAllString(string(text), -1) {
			if !defined[name] {
				t.Errorf("%s names %s, which no _test.go file defines", doc, name)
			}
		}
		for _, ref := range goldenRef.FindAllString(string(text), -1) {
			for _, name := range expandBraces(ref) {
				if !goldenExists(name) {
					t.Errorf("%s names %s, which is not in the tree", doc, name)
				}
			}
		}
		for _, ref := range internalRef.FindAllString(string(text), -1) {
			ref = strings.TrimRight(ref, ".-") // a sentence's full stop
			if _, err := os.Stat(ref); err != nil {
				t.Errorf("%s names %s, which is not in the tree", doc, ref)
			}
		}
		for _, m := range ciStepRef.FindAllStringSubmatch(string(text), -1) {
			if name := strings.Join(strings.Fields(m[1]), " "); !steps[name] {
				t.Errorf("%s cites CI step %q, which .github/workflows/ci.yml does not have", doc, name)
			}
		}
		for _, m := range ciStepOther.FindAllString(string(text), -1) {
			t.Errorf("%s cites a CI step as %q: write CI's `name` step", doc, m)
		}
		for _, m := range anchorLink.FindAllStringSubmatch(string(text), -1) {
			target := doc
			if m[1] != "" {
				target = filepath.Join(filepath.Dir(doc), m[1])
			}
			if !headingSlugs(t, target)[m[2]] {
				t.Errorf("%s links to %s#%s, which has no such heading", doc, m[1], m[2])
			}
		}
	}
}

// headingSlugs returns the anchors GitHub gives the headings of a
// Markdown file: lower case, spaces to hyphens, and every character but
// letters, digits, hyphens and underscores dropped. Lines inside fenced
// code blocks are not headings.
func headingSlugs(t *testing.T, path string) map[string]bool {
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	slugs := map[string]bool{}
	fenced := false
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		title, ok := strings.CutPrefix(strings.TrimLeft(line, "#"), " ")
		if fenced || !ok || !strings.HasPrefix(line, "#") {
			continue
		}
		var b strings.Builder
		for _, r := range strings.ToLower(title) {
			switch {
			case r == ' ':
				b.WriteByte('-')
			case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
				b.WriteRune(r)
			}
		}
		slugs[b.String()] = true
	}
	return slugs
}

// expandBraces expands one {a,b,c} group: "x/{a,b}.golden" is
// x/a.golden and x/b.golden.
func expandBraces(s string) []string {
	pre, rest, ok := strings.Cut(s, "{")
	if !ok {
		return []string{s}
	}
	alts, post, _ := strings.Cut(rest, "}")
	var out []string
	for _, a := range strings.Split(alts, ",") {
		out = append(out, pre+a+post)
	}
	return out
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
