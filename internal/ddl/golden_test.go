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
// under every dialect, DB2's refusal text appended; and the MigrationSQL of
// every merge among them, the synthetic ASSIGN included.
// Regenerate with: go test -run Golden -update ./internal/ddl
func TestGenerateGolden(t *testing.T) {
	merged := func(s *schema.Schema, members []string, name string, removeAll bool) *core.MergedScheme {
		m, err := core.Merge(s, members, name)
		if err != nil {
			t.Fatal(err)
		}
		if removeAll {
			m.RemoveAll()
		}
		return m
	}
	designs := []struct {
		name string
		s    *schema.Schema
		m    *core.MergedScheme // nil for a base design
	}{
		{name: "fig3", s: figures.Fig3()},
		{name: "fig4", m: merged(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH"}, "COURSE'", false)},
		{name: "fig6", m: merged(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''", true)},
		{name: "prop52", m: merged(figures.Fig3(), []string{"OFFER", "TEACH", "ASSIST"}, "OFFER'", true)},
		{name: "fig2", m: merged(figures.Fig2(false), []string{"OFFER", "TEACH"}, "ASSIGN", true)},
	}
	for _, d := range designs {
		if d.m != nil {
			d.s = d.m.Schema
			t.Run(d.name+"-migration", func(t *testing.T) {
				checkGolden(t, d.name+"-migration", MigrationSQL(d.m))
			})
		}
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
				checkGolden(t, name, out)
			})
		}
	}
}

// checkGolden compares out with testdata/<name>.golden, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, out string) {
	t.Helper()
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
}
