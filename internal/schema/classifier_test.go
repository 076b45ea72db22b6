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
// DDL emitters, the advisor, the engine, the router, the public package, the
// commands and the examples read the class off it (INDCheck.KeyBased,
// RelCheck.NNA and Nulls) and never re-derive it from the raw schema.
func TestOneClassifier(t *testing.T) {
	banCalls(t, "read the class off the compiled program",
		[]string{"../ddl", "../advisor", "../engine", "../shard", "../../pkg/relmerge", "../../cmd", "../../examples"},
		"KeyBased", "IsNNA", "nullcon.OnlyNNA")
}

// TestOneEta: the merge's compiled core.Mapping is the only state mapping the
// engine, the router, the DDL, the query planner and the public package run.
// MapState and UnmapState, relational algebra over whole states, are its
// reference and are called from tests only.
func TestOneEta(t *testing.T) {
	banCalls(t, "run the merge's compiled Mapping",
		[]string{"../engine", "../ddl", "../query", "../shard", "../../pkg/relmerge"},
		"MapState", "UnmapState", "Removals", "OuterEquiJoin")
}

// banCalls fails for every call of a banned method or nullcon function in the
// non-test Go files under roots.
func banCalls(t *testing.T, instead string, roots []string, names ...string) {
	t.Helper()
	banned := make(map[string]bool, len(names))
	for _, n := range names {
		banned[n] = true
	}
	for _, root := range roots {
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
					t.Errorf("%s: calls %s; %s", fset.Position(call.Pos()), name, instead)
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
