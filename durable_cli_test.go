package repro

import (
	"strings"
	"testing"
)

// TestRelmergeCLIDurableRecovery drives the -durable flag end to end: the
// first run replays figure 3 into write-ahead-logged engines and checkpoints
// them; the second run over the same directory must recover instead of
// replaying. A run with a bad -fsync policy must fail.
func TestRelmergeCLIDurableRecovery(t *testing.T) {
	bin := buildTool(t, "relmerge")
	dir := t.TempDir()
	args := []string{"-fig3", "-merge", "COURSE,OFFER,TEACH,ASSIST",
		"-name", "COURSE''", "-remove", "all", "-metrics", "text",
		"-durable", dir, "-fsync", "always"}

	out, err := run(t, bin, args...)
	if err != nil {
		t.Fatalf("first durable run: %v\n%s", err, out)
	}
	for _, want := range []string{
		`durable{db="base",policy="always"} recovered=false`,
		`durable{db="merged",policy="always"} recovered=false`,
		`wal.checkpoints{wal="base"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("first run missing %q in:\n%s", want, out)
		}
	}

	out, err = run(t, bin, args...)
	if err != nil {
		t.Fatalf("second durable run: %v\n%s", err, out)
	}
	for _, want := range []string{
		`durable{db="base",policy="always"} recovered=true`,
		`durable{db="merged",policy="always"} recovered=true`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("second run did not recover; missing %q in:\n%s", want, out)
		}
	}

	if out, err := run(t, bin, "-fig3", "-metrics", "text", "-durable", dir, "-fsync", "sometimes"); err == nil {
		t.Errorf("unknown -fsync policy should fail:\n%s", out)
	}
	if out, err := run(t, bin, "-fig3", "-durable", dir); err == nil {
		t.Errorf("-durable without -metrics should fail:\n%s", out)
	}
}
