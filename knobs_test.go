package pathload_test

import (
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

// TestConfigFieldsHaveSetters holds the module to one rule: a
// configuration field exists only if a caller sets it. Every exported
// field of a struct whose name ends in Config or Options must have a
// setter somewhere in the module, tests and benchmark/ included. A
// setter is a key in a composite literal of that type (elided element
// literals such as []pathload.Config{{MTU: 1500}} included), or an
// assignment through a selector outside the file that declares the
// struct; that file holds its withDefaults, which fills the field
// rather than sets it. A field nobody sets is a constant: make it one.
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
				name := s.Name.Name
				if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
					continue
				}
				ks := &knobStruct{file: kf.name, set: map[string]bool{}}
				for _, f := range st.Fields.List {
					for _, n := range f.Names {
						if n.IsExported() {
							ks.fields = append(ks.fields, n.Name)
						}
					}
				}
				structs[knobType{kf.dir, name}] = ks
			}
		}
	}

	for _, kf := range files {
		kf.markSetters(structs)
	}

	var unset []string
	for typ, ks := range structs {
		for _, f := range ks.fields {
			if !ks.set[f] {
				unset = append(unset, typ.String()+"."+f)
			}
		}
	}
	sort.Strings(unset)
	for _, f := range unset {
		t.Errorf("%s has no setter in the module: make it a constant", f)
	}
}

// A knobType names a struct by its package directory and type name.
type knobType struct{ dir, name string }

func (k knobType) String() string {
	if k.dir == "." {
		return "pathload." + k.name
	}
	return k.dir + "." + k.name
}

// A knobStruct is one Config or Options struct: where it is declared,
// its exported fields, and which of them something sets.
type knobStruct struct {
	file   string
	fields []string
	set    map[string]bool
}

func (ks *knobStruct) has(field string) bool {
	for _, f := range ks.fields {
		if f == field {
			return true
		}
	}
	return false
}

// A knobFile is one parsed source file with its package directory and
// its imports resolved to directories of this module.
type knobFile struct {
	name, dir string
	file      *ast.File
	imports   map[string]string // local name → package directory
}

func newKnobFile(name string, f *ast.File) *knobFile {
	kf := &knobFile{name: name, dir: filepath.Dir(name), file: f, imports: map[string]string{}}
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

// markSetters records every field this file sets.
func (kf *knobFile) markSetters(structs map[knobType]*knobStruct) {
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
					owner.set[field] = true
				}
				return
			}
		}
		for _, ks := range structs {
			if ks.file != kf.name && ks.has(field) {
				ks.set[field] = true
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
						owner.set[key.Name] = true
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
