package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// resultFile is what -runs writes and -compare reads: the raw results of
// several runs of every workload.
type resultFile struct {
	Runs []*result `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// values collects one end-to-end metric of one workload over the runs.
func (rf *resultFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range rf.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// quartiles are those of Python's statistics.quantiles(vs, n=4), the
// definition the benchmark contract uses for a metric's spread.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		d := float64(i*m - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, _, q3 := quartiles(vs)
	return ratio(q3-q1, median(vs))
}

// worsening is how far cur is on the wrong side of old, as a share of old
// (negative: cur is better).
func worsening(d metricDef, old, cur float64) float64 {
	w := ratio(cur-old, old)
	if d.Better == "higher" {
		w = -w
	}
	return w
}

// runAll runs every workload n times in child processes, so that each run
// starts from a fresh heap, and returns the results in run order. Run i uses
// seed o.seed+i.
func runAll(n int, o options, label string) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []*result
	for i := 0; i < n; i++ {
		for _, sp := range specs {
			seed := o.seed + int64(i)
			cmd := exec.Command(self, "-workload", sp.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds), "-trace", "0", "-outdir", o.outDir)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s %d of %s: %w", label, i, sp.name, err)
			}
			b, err := os.ReadFile(filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace0.json", sp.name, seed)))
			if err != nil {
				return nil, err
			}
			var r result
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "%s %d %-22s ops_per_s=%.0f setup_s=%.2f\n", label, i, sp.name, r.Metrics["ops_per_s"].Value, r.Metrics["setup_s"].Value)
			out = append(out, &r)
		}
	}
	return out, nil
}

// compareRow is one workload × metric line of -compare and -aa.
type compareRow struct {
	Workload  string     `json:"workload"`
	Metric    string     `json:"metric"`
	Unit      string     `json:"unit"`
	Bound     float64    `json:"bound"`
	OldMedian float64    `json:"old_median"`
	OldQ      [2]float64 `json:"old_q1_q3"`
	NewMedian float64    `json:"new_median"`
	NewQ      [2]float64 `json:"new_q1_q3"`
	// Worse is (new − old) / old with the sign turned so that positive
	// means worse; Spread the interquartile distance over the median, the
	// larger of the two sets' (-compare) or of both sets together (-aa).
	Worse   float64 `json:"worse_by"`
	Spread  float64 `json:"spread"`
	Verdict string  `json:"verdict"`
}

// compareSets diffs two result sets with the bounds of BENCHMARK.json.
// limit scales the bound the medians are held to (1 for -compare, 0.5 for
// the A/A check). sameCode says both sets ran the same tree, so the spread is
// taken over all their runs together — the ten-run spread of the contract —
// and not as the larger of two five-run spreads, which one slow run decides.
func compareSets(old, cur *resultFile, limit float64, sameCode bool) []compareRow {
	var rows []compareRow
	for _, sp := range specs {
		for _, d := range endToEnd {
			ov, nv := old.values(sp.name, d.Name), cur.values(sp.name, d.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			oq1, _, oq3 := quartiles(ov)
			nq1, _, nq3 := quartiles(nv)
			r := compareRow{
				Workload: sp.name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound,
				OldMedian: median(ov), OldQ: [2]float64{oq1, oq3},
				NewMedian: median(nv), NewQ: [2]float64{nq1, nq3},
				Spread: max(spread(ov), spread(nv)),
			}
			if sameCode {
				r.Spread = spread(append(ov, nv...))
			}
			r.Worse = worsening(d, r.OldMedian, r.NewMedian)
			switch {
			case r.Spread > d.Bound:
				r.Verdict = "unresolved"
			case r.Worse > d.Bound*limit:
				r.Verdict = "regressed"
			case r.Worse < -d.Bound*limit:
				r.Verdict = "improved"
			default:
				r.Verdict = "unchanged"
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func printRows(rows []compareRow) {
	fmt.Printf("%-22s %-19s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "worse by", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-22s %-19s %14.4f %14.4f %+8.2f%% %7.2f%% %6.1f%%  %s (new = %.4f × old %.4f %s)\n",
			r.Workload, r.Metric, r.OldMedian, r.NewMedian, 100*r.Worse, 100*r.Spread, 100*r.Bound, r.Verdict,
			ratio(r.NewMedian, r.OldMedian), r.OldMedian, r.Unit)
	}
}

// compareFiles is -compare OLD.json NEW.json. It exits non-zero on a
// regression; an unresolved row is reported, not failed.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two result files, OLD.json NEW.json")
	}
	old, err := readResults(args[0])
	if err != nil {
		return err
	}
	cur, err := readResults(args[1])
	if err != nil {
		return err
	}
	rows := compareSets(old, cur, 1, false)
	printRows(rows)
	for _, r := range rows {
		if r.Verdict == "regressed" {
			return fmt.Errorf("%s %s regressed by %.2f %% (bound %.1f %%)", r.Workload, r.Metric, 100*r.Worse, 100*r.Bound)
		}
	}
	return nil
}

// selfCheck is -aa N: two interleaved sets (A B A B …) of N runs of the same
// tree. Every pair of medians must agree within half the metric's bound and
// every spread must stay within the bound, or the benchmark cannot tell a
// regression of that size from noise.
func selfCheck(n int, o options, out string) error {
	var a, b resultFile
	for i := 0; i < n; i++ {
		oi := o
		oi.seed = o.seed + int64(i)
		ra, err := runAll(1, oi, "A")
		if err != nil {
			return err
		}
		rb, err := runAll(1, oi, "B")
		if err != nil {
			return err
		}
		a.Runs, b.Runs = append(a.Runs, ra...), append(b.Runs, rb...)
	}
	rows := compareSets(&a, &b, 0.5, true)
	printRows(rows)
	var failed []string
	for _, r := range rows {
		if r.Verdict != "unchanged" {
			failed = append(failed, fmt.Sprintf("%s %s: %s (differs by %+.2f %%, spread %.2f %%, bound %.1f %%)", r.Workload, r.Metric, r.Verdict, 100*r.Worse, 100*r.Spread, 100*r.Bound))
		}
	}
	if out != "" {
		doc := struct {
			Seed   int64        `json:"seed"`
			Runs   int          `json:"runs_per_set"`
			Pass   bool         `json:"pass"`
			Failed []string     `json:"failed,omitempty"`
			Rows   []compareRow `json:"rows"`
			A      []*result    `json:"set_a"`
			B      []*result    `json:"set_b"`
			Claim  *string      `json:"claim"`
		}{o.seed, n, len(failed) == 0, failed, rows, a.Runs, b.Runs, nil}
		if err := writeJSON(out, doc); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("A/A check failed:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}
