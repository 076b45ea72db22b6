package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// metricsDoc mirrors the relmerge -metrics json document loosely; only the
// fields the golden comparison needs.
type metricsDoc struct {
	Metrics []struct {
		Name   string            `json:"name"`
		Kind   string            `json:"kind"`
		Labels map[string]string `json:"labels,omitempty"`
		Value  float64           `json:"value"`
		Count  uint64            `json:"count"`
	} `json:"metrics"`
	Spans []struct {
		Name  string `json:"name"`
		Depth int    `json:"depth"`
	} `json:"spans"`
}

// normalizeMetrics reduces the -metrics json output to its deterministic
// core: engine/query counter values and histogram observation counts (replay
// of a fixed state), the sorted list of every registered metric name (cache
// counters exist but their values depend on scheduling), and span names with
// nesting depth. Timing-dependent fields (histogram sums, span durations) are
// dropped.
func normalizeMetrics(t *testing.T, raw string) string {
	t.Helper()
	var doc metricsDoc
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatalf("parsing -metrics json: %v\n%s", err, raw)
	}
	var lines []string
	names := map[string]bool{}
	for _, m := range doc.Metrics {
		names[m.Name] = true
		deterministic := strings.HasPrefix(m.Name, "engine.") || strings.HasPrefix(m.Name, "query.")
		if !deterministic {
			continue
		}
		// Time-valued gauges (version age) track wall-clock, not the replayed
		// workload; keep their names registered above but drop the values.
		if m.Kind != "histogram" && strings.HasSuffix(m.Name, "_seconds") {
			continue
		}
		label := m.Name
		if db := m.Labels["db"]; db != "" {
			label += fmt.Sprintf("{db=%q}", db)
		}
		switch m.Kind {
		case "histogram":
			lines = append(lines, fmt.Sprintf("%s count=%d", label, m.Count))
		default:
			lines = append(lines, fmt.Sprintf("%s value=%v", label, m.Value))
		}
	}
	sort.Strings(lines)
	var nameList []string
	for n := range names {
		nameList = append(nameList, n)
	}
	sort.Strings(nameList)
	out := "registered: " + strings.Join(nameList, " ") + "\n"
	out += strings.Join(lines, "\n") + "\n"
	for _, sp := range doc.Spans {
		out += fmt.Sprintf("span %s depth=%d\n", sp.Name, sp.Depth)
	}
	return out
}

// TestRelmergeCLIMetricsGolden pins the deterministic shape of the figure 3
// observability report: run with -update to regenerate the golden file.
func TestRelmergeCLIMetricsGolden(t *testing.T) {
	bin := buildTool(t, "relmerge")
	out, err := run(t, bin, "-fig3", "-merge", "COURSE,OFFER,TEACH,ASSIST",
		"-name", "COURSE''", "-remove", "all", "-metrics", "json")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	_, report, found := strings.Cut(out, "-- observability report:\n")
	if !found {
		t.Fatalf("no observability report in output:\n%s", out)
	}
	got := normalizeMetrics(t, report)

	golden := filepath.Join("testdata", "relmerge_metrics_fig3.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("metrics report drifted from golden file.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// The figure 3 merged design needs trigger firings where the base design is
// fully declarative — the Prop. 5.1 regime split the report must surface.
func TestRelmergeCLIMetricsRegimes(t *testing.T) {
	bin := buildTool(t, "relmerge")
	out, err := run(t, bin, "-fig3", "-merge", "COURSE,OFFER,TEACH,ASSIST",
		"-name", "COURSE''", "-remove", "all", "-metrics", "text")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{
		`engine.trigger_firings{db="base"} 0`,
		`engine.trigger_firings{db="merged"} 6`,
		`engine.declarative_checks{db="base"} 50`,
		`engine.declarative_checks{db="merged"} 43`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if out, err := run(t, bin, "-fig3", "-metrics", "yaml"); err == nil {
		t.Errorf("unknown metrics mode should fail:\n%s", out)
	}
}
