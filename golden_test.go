package repro

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files from current output")

// Every experiment benchreport runs is pinned byte-for-byte: any change to
// the constraint sets Merge/Remove generate for the paper's figures, or to
// the seeded proposition checks (E9), shows up as a golden diff. Regenerate with: go test -run Golden -update .
func TestGoldenFigureReports(t *testing.T) {
	bin := buildTool(t, "benchreport")
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10"} {
		id := id
		t.Run(id, func(t *testing.T) {
			out, err := run(t, bin, "-only", id)
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			path := filepath.Join("testdata", strings.ToLower(id)+".golden")
			if *updateGolden {
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
