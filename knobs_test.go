package pathload_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// knobExtra names the structs the gate checks whatever their names end
// in: heal, topology and schedule policies and the simulated prober,
// whose fields are knobs all the same.
var knobExtra = []string{
	"pathload.Reconnect",
	"internal/experiments.Topology",
	"internal/schedule.Fixed",
	"internal/schedule.Adaptive",
	"internal/schedule.Budgeted",
	"internal/schedule.Until",
	"internal/simprobe.Prober",
}

// knobSeams names every checked field that no shipped code sets but
// that stays a field, each with the test or deployment that needs it.
// An entry whose field shipped code now sets, or whose field is gone,
// is stale and fails the gate.
var knobSeams = map[string]string{
	// Injected clocks and dialers: deterministic time and in-process
	// pipes for tests, and the seam a virtual-clock fleet builds on.
	"internal/archive.Options.NowUnix": "injected clock: archive and defects goldens pin seal timestamps",
	"internal/coord.ServerConfig.Now":  "injected clock: the harness runs the coordinator on scripted time, so harness.golden replays",
	"internal/coord.AgentConfig.Dial":  "injected dialer: agent tests script dial failures and pipe sessions",

	// Test-speed timeouts: defaults of seconds, which tests cut to
	// milliseconds to stay off multi-second real waits.
	"internal/coord.AgentConfig.DialBackoff":       "test-speed timeout: backoff tests read 5 ms steps, not the 500 ms default",
	"internal/udprobe.ProberConfig.ControlTimeout": "test-speed timeout: dead-sender and handshake tests fail in 100 ms, not 10 s",
	"internal/udprobe.ProberConfig.KeepAlive":      "test-speed timeout: keepalive tests ping every 20–100 ms, not every 45 s",
	"internal/udprobe.ProberConfig.RTTRefresh":     "test-speed timeout: the RTT-refresh test makes every stream re-measure",
	"pathload.Reconnect.MaxBackoff":                "test-speed timeout: heal tests and examples/realnet cap the backoff below the 15 s default",

	// Values that move goldens or test premises.
	"internal/tsstore.Config.DigestSize":     "small digests exercise compression; metrics.golden and harness.golden are captured with them",
	"internal/experiments.Topology.BufBytes": "TestLossyPathAborts needs a two-packet buffer",
	"internal/experiments.Topology.Sizes":    "the fluid cross-check needs fixed-size cross traffic",
	"pathload.Config.DisableInitProbe":       "scripted fake probers answer fleets only, not the ADR train",
	"internal/simprobe.Prober.ClockOffset":   "relative-OWD invariance: TestClockOffsetInvariance and TestMeasurementSurvivesClockSkew offset the receiver clock",

	// Real-host limits a real-network caller sets.
	"pathload.Config.MTU":       "the path MTU of a real host: tunnels shrink it, jumbo frames grow it",
	"pathload.Config.MinPeriod": "the sender host's T_min; examples/realnet sets it",
	"pathload.Config.MaxFleets": "bounds a real measurement's length; examples/realnet sets it",
}

// TestConfigFieldsHaveSetters holds the module to one rule: a
// configuration field exists only if shipped code sets it, or knobSeams
// names the test or deployment that needs it. Shipped code is every
// non-test file outside examples/; benchmark/ counts, since its
// workloads are callers. The checked fields are the exported fields of
// every exported struct whose name ends in Config, Options, Spec or
// Params, and of the structs knobExtra names. A setter is a key in a
// composite literal of that type (elided element literals such as
// []pathload.Config{{MTU: 1500}} included), or an assignment through a
// selector outside the file that declares the struct; that file holds
// its withDefaults, which fills the field rather than sets it. A field
// nothing ships a setter for is a constant: make it one.
func TestConfigFieldsHaveSetters(t *testing.T) {
	var files []*knobFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, newKnobFile(p, f))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range knobProblems(files, knobExtra, knobSeams) {
		t.Error(p)
	}
}

// TestKnobGateFixture runs the gate's walker over a small in-memory
// module, so a regression in the AST walk cannot pass quietly: it must
// report a field only the declaring file fills, fields set only from a
// test or an example, and stale knobSeams entries, and accept a field
// set by shipped code and one its seam entry names.
func TestKnobGateFixture(t *testing.T) {
	src := map[string]string{
		"internal/widget/widget.go": `package widget
type Config struct{ Size, Depth, Speed, Fill, Seam int }
type Shape struct{ Edges int }
func (c Config) withDefaults() Config { c.Fill = 1; return c }
`,
		"internal/widget/widget_test.go": `package widget
var _ = Config{Depth: 1}
`,
		"examples/demo/main.go": `package main
import "repro/internal/widget"
func main() { var c widget.Config; c.Speed = 2; _ = c }
`,
		"cmd/tool/main.go": `package main
import w "repro/internal/widget"
var _ = []w.Config{{Size: 3}}
func main() {}
`,
	}
	fset := token.NewFileSet()
	var files []*knobFile
	for name, s := range src {
		f, err := parser.ParseFile(fset, name, s, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, newKnobFile(filepath.FromSlash(name), f))
	}
	seams := map[string]string{
		"internal/widget.Config.Seam": "a reason",
		"internal/widget.Config.Size": "stale: cmd/tool sets it",
		"internal/widget.Config.Gone": "stale: no such field",
	}
	got := knobProblems(files, []string{"internal/widget.Shape"}, seams)
	want := []string{
		"internal/widget.Config.Depth is set only by tests or examples: make it a constant, or name it in knobSeams with the reason",
		"internal/widget.Config.Fill has no setter: make it a constant",
		"internal/widget.Config.Gone is a stale knobSeams entry: no such field",
		"internal/widget.Config.Size is a stale knobSeams entry: shipped code sets it",
		"internal/widget.Config.Speed is set only by tests or examples: make it a constant, or name it in knobSeams with the reason",
		"internal/widget.Shape.Edges has no setter: make it a constant",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("gate over the fixture reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// knobProblems applies the rule to a parsed module: one message per
// checked field that no shipped code sets and no seam names, per stale
// or reasonless seam entry, and per extra name the module lacks, in
// sorted order.
func knobProblems(files []*knobFile, extra []string, seams map[string]string) []string {
	wanted := map[string]bool{}
	for _, name := range extra {
		wanted[name] = true
	}
	structs := map[knobType]*knobStruct{}
	for _, kf := range files {
		if strings.HasSuffix(kf.name, "_test.go") {
			continue
		}
		for _, decl := range kf.file.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				s := spec.(*ast.TypeSpec)
				st, ok := s.Type.(*ast.StructType)
				typ := knobType{kf.dir, s.Name.Name}
				if !ok || !s.Name.IsExported() || !(knobSuffixed(typ.name) || wanted[typ.String()]) {
					continue
				}
				delete(wanted, typ.String())
				ks := &knobStruct{file: kf.name, set: map[string]bool{}, setElsewhere: map[string]bool{}}
				for _, f := range st.Fields.List {
					for _, n := range f.Names {
						if n.IsExported() {
							ks.fields = append(ks.fields, n.Name)
						}
					}
				}
				structs[typ] = ks
			}
		}
	}

	for _, kf := range files {
		kf.markSetters(structs)
	}

	var problems []string
	for name := range wanted {
		problems = append(problems, fmt.Sprintf("knobExtra names %s, which the module does not declare", name))
	}
	fields := map[string]bool{}
	for typ, ks := range structs {
		for _, f := range ks.fields {
			name := typ.String() + "." + f
			fields[name] = true
			switch _, seam := seams[name]; {
			case ks.set[f] && seam:
				problems = append(problems, name+" is a stale knobSeams entry: shipped code sets it")
			case ks.set[f] || seam:
			case ks.setElsewhere[f]:
				problems = append(problems, name+" is set only by tests or examples: make it a constant, or name it in knobSeams with the reason")
			default:
				problems = append(problems, name+" has no setter: make it a constant")
			}
		}
	}
	for name, why := range seams {
		switch {
		case !fields[name]:
			problems = append(problems, name+" is a stale knobSeams entry: no such field")
		case strings.TrimSpace(why) == "":
			problems = append(problems, name+" has a knobSeams entry without a reason")
		}
	}
	sort.Strings(problems)
	return problems
}

// knobSuffixed reports whether a struct's name marks it as configuration.
func knobSuffixed(name string) bool {
	for _, s := range []string{"Config", "Options", "Spec", "Params"} {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// A knobType names a struct by its package directory and type name.
type knobType struct{ dir, name string }

func (k knobType) String() string {
	if k.dir == "." {
		return "pathload." + k.name
	}
	return filepath.ToSlash(k.dir) + "." + k.name
}

// A knobStruct is one checked struct: where it is declared, its
// exported fields, which of them shipped code sets, and which only
// tests or examples set.
type knobStruct struct {
	file              string
	fields            []string
	set, setElsewhere map[string]bool
}

func (ks *knobStruct) has(field string) bool {
	for _, f := range ks.fields {
		if f == field {
			return true
		}
	}
	return false
}

// A knobFile is one parsed source file with its package directory, its
// imports resolved to directories of this module, and whether it ships:
// neither a test nor under examples/.
type knobFile struct {
	name, dir string
	shipped   bool
	file      *ast.File
	imports   map[string]string // local name → package directory
}

func newKnobFile(name string, f *ast.File) *knobFile {
	kf := &knobFile{name: name, dir: filepath.Dir(name), file: f, imports: map[string]string{}}
	kf.shipped = !strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(filepath.ToSlash(name), "examples/")
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if p != "repro" && !strings.HasPrefix(p, "repro/") {
			continue
		}
		dir := strings.TrimPrefix(strings.TrimPrefix(p, "repro"), "/")
		if dir == "" {
			dir = "."
		}
		local := path.Base(p)
		if p == "repro" {
			local = "pathload"
		}
		if imp.Name != nil {
			local = imp.Name.Name
		}
		kf.imports[local] = filepath.FromSlash(dir)
	}
	return kf
}

// named resolves a type expression to the struct it names, or nil.
func (kf *knobFile) named(structs map[knobType]*knobStruct, e ast.Expr) *knobStruct {
	switch e := e.(type) {
	case *ast.StarExpr:
		return kf.named(structs, e.X)
	case *ast.Ident:
		return structs[knobType{kf.dir, e.Name}]
	case *ast.SelectorExpr:
		if pkg, ok := e.X.(*ast.Ident); ok {
			if dir, ok := kf.imports[pkg.Name]; ok {
				return structs[knobType{dir, e.Sel.Name}]
			}
		}
	}
	return nil
}

// markSetters records every field this file sets, as shipped when the
// file ships and as set elsewhere when it does not.
func (kf *knobFile) markSetters(structs map[knobType]*knobStruct) {
	mark := func(ks *knobStruct, field string) {
		if kf.shipped {
			ks.set[field] = true
		} else {
			ks.setElsewhere[field] = true
		}
	}
	implied := map[*ast.CompositeLit]ast.Expr{} // elided literal → its element type
	var params map[string]ast.Expr              // the enclosing function's receiver and parameters
	// assigned marks x.field set: in x's struct when x is a receiver or
	// parameter of a known struct type, else in every struct with that
	// field, but never from the struct's declaring file.
	assigned := func(e ast.Expr) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return
		}
		field := sel.Sel.Name
		if x, ok := sel.X.(*ast.Ident); ok && params[x.Name] != nil {
			if owner := kf.named(structs, params[x.Name]); owner != nil && owner.has(field) {
				if owner.file != kf.name {
					mark(owner, field)
				}
				return
			}
		}
		for _, ks := range structs {
			if ks.file != kf.name && ks.has(field) {
				mark(ks, field)
			}
		}
	}
	ast.Inspect(kf.file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			params = map[string]ast.Expr{}
			for _, fl := range []*ast.FieldList{n.Recv, n.Type.Params} {
				if fl == nil {
					continue
				}
				for _, f := range fl.List {
					for _, id := range f.Names {
						params[id.Name] = f.Type
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					assigned(lhs)
				}
			}
		case *ast.CompositeLit:
			typ := n.Type
			if typ == nil {
				typ = implied[n]
			}
			var elem ast.Expr
			switch tt := typ.(type) {
			case *ast.ArrayType:
				elem = tt.Elt
			case *ast.MapType:
				elem = tt.Value
			}
			owner := kf.named(structs, typ)
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok && owner != nil && owner.has(key.Name) {
						mark(owner, key.Name)
					}
					el = kv.Value
				}
				if lit, ok := el.(*ast.CompositeLit); ok && lit.Type == nil && elem != nil {
					implied[lit] = elem
				}
			}
		}
		return true
	})
}
