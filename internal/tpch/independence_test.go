package tpch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEnginePlansIndependent keeps the engine plans a program of their own,
// so the engine ≡ decode-first equivalence tests compare two programs and
// not one with itself. Parsed from source, no engine plan file (TPC-H
// engine*.go, SSB engine.go) may read a whole column by hand (ops.ReadAll*)
// or call a function of the decode-first files that takes the tables, a
// map or decoded dimensions — the helpers that read and join tables
// themselves. Pure helpers of those files (a value test, a result
// formatter) stay callable.
func TestEnginePlansIndependent(t *testing.T) {
	tpchEngine, err := filepath.Glob("engine*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []struct {
		engine, reference []string
	}{
		{tpchEngine, []string{"queries_a.go", "queries_b.go", "queries_c.go"}},
		{[]string{"../ssb/engine.go"}, []string{"../ssb/queries.go", "../ssb/engines.go"}},
	} {
		fset := token.NewFileSet()
		forbidden := map[string]bool{}
		for _, path := range pkg.reference {
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && readsTables(fd) {
					forbidden[fd.Name.Name] = true
				}
			}
		}
		if len(forbidden) == 0 {
			t.Fatalf("no table-reading helper found in %v: the check would be vacuous", pkg.reference)
		}
		for _, path := range pkg.engine {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			var bad []string
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var name string
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					name = fun.Name
				case *ast.SelectorExpr:
					name = fun.Sel.Name
					if x, ok := fun.X.(*ast.Ident); ok && x.Name == "ops" && strings.HasPrefix(name, "ReadAll") {
						bad = append(bad, fset.Position(call.Pos()).String()+": ops."+name)
						return true
					}
				}
				if forbidden[name] {
					bad = append(bad, fset.Position(call.Pos()).String()+": "+name)
				}
				return true
			})
			sort.Strings(bad)
			for _, b := range bad {
				t.Errorf("engine plan reads tables outside the engine: %s", b)
			}
		}
	}
}

// readsTables reports whether a function or method takes the tables, a
// map or decoded dimensions, as receiver or parameter.
func readsTables(fd *ast.FuncDecl) bool {
	var fields []*ast.Field
	if fd.Recv != nil {
		fields = append(fields, fd.Recv.List...)
	}
	fields = append(fields, fd.Type.Params.List...)
	for _, f := range fields {
		switch typ := f.Type.(type) {
		case *ast.MapType:
			return true
		case *ast.StarExpr:
			if id, ok := typ.X.(*ast.Ident); ok && (id.Name == "Tables" || id.Name == "dims") {
				return true
			}
		}
	}
	return false
}
