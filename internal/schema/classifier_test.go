package schema_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneClassifier: the compiled program is the only code that decides
// whether a constraint is declarative or procedural (Props. 5.1, 5.2). The
// DDL emitters, the advisor, the engine, the router and the public package
// read the class off it (INDCheck.KeyBased, RelCheck.NNA and Nulls) and never
// re-derive it from the raw schema.
func TestOneClassifier(t *testing.T) {
	banned := map[string]bool{"KeyBased": true, "IsNNA": true, "nullcon.OnlyNNA": true}
	for _, root := range []string{"../ddl", "../advisor", "../engine", "../shard", "../../pkg/relmerge"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				name := sel.Sel.Name
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "nullcon" {
					name = "nullcon." + name
				}
				if banned[name] {
					t.Errorf("%s: calls %s; read the class off the compiled program", fset.Position(call.Pos()), name)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
