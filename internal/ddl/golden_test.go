package ddl

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/schema"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files from current output")

// TestGenerateGolden pins the generated DDL byte for byte: the paper's
// figure 3, figure 4's COURSE' merge, figure 6 after RemoveAll and the
// Prop. 5.2 merge, and figure 2's unlinked merge (a part-null constraint),
// under every dialect, DB2's refusal text appended.
// Regenerate with: go test -run Golden -update ./internal/ddl
func TestGenerateGolden(t *testing.T) {
	merged := func(s *schema.Schema, members []string, name string, removeAll bool) *schema.Schema {
		m, err := core.Merge(s, members, name)
		if err != nil {
			t.Fatal(err)
		}
		if removeAll {
			m.RemoveAll()
		}
		return m.Schema
	}
	designs := []struct {
		name string
		s    *schema.Schema
	}{
		{"fig3", figures.Fig3()},
		{"fig4", merged(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH"}, "COURSE'", false)},
		{"fig6", merged(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''", true)},
		{"prop52", merged(figures.Fig3(), []string{"OFFER", "TEACH", "ASSIST"}, "OFFER'", true)},
		{"fig2", merged(figures.Fig2(false), []string{"OFFER", "TEACH"}, "ASSIGN", true)},
	}
	for _, d := range designs {
		for _, dialect := range []Dialect{DB2, Sybase, Ingres} {
			name := d.name + "-" + dialect.String()
			t.Run(name, func(t *testing.T) {
				out, err := Generate(d.s, Options{Dialect: dialect})
				var ue *UnsupportedError
				if errors.As(err, &ue) {
					out += "-- " + ue.Error() + "\n"
				} else if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", name+".golden")
				if *updateGolden {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update): %v", err)
				}
				if out != string(want) {
					t.Errorf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, out, want)
				}
			})
		}
	}
}
