package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/relation"
)

type Value = relation.Value

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

const tiny = 0.001

func tinyPlan(t *testing.T, name string, seed int64) *plan {
	t.Helper()
	sp := specByName(name)
	if sp == nil {
		t.Fatalf("no workload %s", name)
	}
	return newPlan(sp, seed, sp.clients, 64, int(float64(sp.opsPerSecond*8)*tiny))
}

// Same seed, same inputs — byte for byte, and on every machine: the hashes
// are pinned. A change here changes what every later comparison runs on, so
// it must be deliberate.
func TestStreamIsDeterministic(t *testing.T) {
	pinned := map[string]string{
		"embed-read-base":     "111c368b0016e7eb",
		"remote-mixed-merged": "a66d6b4685e6c16f",
		"durable-write-chain": "b64285ffd716ff6c",
		"sharded-write-base":  "b4c19884444bd573",
	}
	for _, sp := range specs {
		a, b := tinyPlan(t, sp.name, 1).streamHash(), tinyPlan(t, sp.name, 1).streamHash()
		if a != b {
			t.Errorf("%s: seed 1 generated two different streams", sp.name)
		}
		if got := fmt.Sprintf("%016x", a); got != pinned[sp.name] {
			t.Errorf("%s: stream hash %s, pinned %s", sp.name, got, pinned[sp.name])
		}
		if c := tinyPlan(t, sp.name, 2).streamHash(); c == a {
			t.Errorf("%s: seeds 1 and 2 generated the same stream", sp.name)
		}
	}
}

// The mix is exact in every block, so count metrics do not depend on the seed.
func TestMixIsExact(t *testing.T) {
	for _, sp := range specs {
		p := tinyPlan(t, sp.name, 3)
		for c, ops := range p.streams {
			if len(ops) != p.streamLen() {
				t.Fatalf("%s client %d: %d ops, want %d", sp.name, c, len(ops), p.streamLen())
			}
			for s := 0; s <= segments; s++ {
				var n [numKinds]int
				for _, o := range ops[s*p.segOps : (s+1)*p.segOps] {
					n[o.kind]++
				}
				for k := range n {
					if want := sp.mix[k] * p.segOps / sp.blockLen(); n[k] != want {
						t.Errorf("%s client %d segment %d: %d %s ops, want %d", sp.name, c, s, n[k], kindNames[k], want)
					}
				}
			}
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	vs := make([]int64, 100)
	for i := range vs {
		vs[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(vs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile([]int64{}, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median(5,1,3) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

// Two clients, 20 segments of 2 ops: a segment's rate is the sum of the
// clients' rates, its percentiles pool both clients' samples.
func TestSummarize(t *testing.T) {
	segOps := 2
	dur := [][]int64{make([]int64, segments), make([]int64, segments)}
	lat := [][]int32{make([]int32, segments*segOps), make([]int32, segments*segOps)}
	for s := 0; s < segments; s++ {
		dur[0][s], dur[1][s] = 1e9, 2e9 // 2 ops/s and 1 op/s
		lat[0][2*s], lat[0][2*s+1] = 1000, 2000
		lat[1][2*s], lat[1][2*s+1] = 3000, 4000
	}
	dur[0][7] = 100e9 // one disturbed segment must not move the medians
	lat[0][14] = 1e9
	segs := summarize(dur, lat, segOps)
	if got := segs[0].OpsPerS; got != 3 {
		t.Errorf("segment 0 throughput %v, want 3", got)
	}
	if segs[0].P50us != 2 || segs[0].P99us != 4 || segs[0].Samples != 4 {
		t.Errorf("segment 0 = %+v, want p50 2 p99 4 over 4 samples", segs[0])
	}
	if got := segmentMedian(segs, func(s segmentStats) float64 { return s.OpsPerS }); got != 3 {
		t.Errorf("median throughput %v, want 3", got)
	}
	if got := segmentMedian(segs, func(s segmentStats) float64 { return s.P99us }); got != 4 {
		t.Errorf("median p99 %v, want 4", got)
	}
	if n := outliers(segs); n != 1 {
		t.Errorf("%d outlier segments, want 1", n)
	}
}

// op ⊃ relmerge ⊃ backend, twice; self time is the span minus its children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Layer: layerBackend, Kind: uint8(opFetch), Start: 30, End: 50},
		{Layer: layerOp, Kind: uint8(opProfile), Start: 0, End: 200},
		{Layer: layerRelmerge, Kind: uint8(opFetch), Start: 10, End: 90},
		{Layer: layerRelmerge, Kind: uint8(opFetch), Start: 100, End: 190},
		{Layer: layerBackend, Kind: uint8(opFetch), Start: 100, End: 130},
		{Layer: layerOp, Kind: uint8(opFetch), Start: 200, End: 260}, // no children
	}
	ordered, self := selfTimes(spans)
	want := map[span]int64{
		spans[1]: 200 - 80 - 90,
		spans[2]: 80 - 20,
		spans[0]: 20,
		spans[3]: 90 - 30,
		spans[4]: 30,
		spans[5]: 60,
	}
	for i, s := range ordered {
		if self[i] != want[s] {
			t.Errorf("self time of %+v = %d, want %d", s, self[i], want[s])
		}
	}
	g := groupSpans(spans)[[2]uint8{layerRelmerge, uint8(opFetch)}]
	if g.Count != 2 || g.P50us != 0.08 || g.SelfP50us != 0.06 {
		t.Errorf("relmerge fetch group = %+v", g)
	}
}

func TestModelRules(t *testing.T) {
	p := tinyPlan(t, "durable-write-chain", 1)
	for _, row := range p.model.rels["MERGED"] {
		if p.model.insert("MERGED", row) {
			t.Error("the model accepted a duplicate key")
		}
		break
	}
	broken := chainRow(sval("x"), 4, 2, [][]Value{nil, {sval("t1-0")}, {sval("t2-0")}, {sval("t3-0")}, {sval("t4-0")}, {sval("t5-0")}, {sval("t6-0")}}, newRand(1))
	if p.model.insert("MERGED", broken) {
		t.Errorf("the model accepted %v, which sets link 3 without link 2", broken)
	}
	dangling := chainRow(sval("y"), 1, 0, [][]Value{nil, {sval("no-such-target")}, nil, nil, nil, nil, nil}, newRand(1))
	if p.model.insert("MERGED", dangling) {
		t.Error("the model accepted a dangling foreign key")
	}
	if !p.model.insert("MERGED", chainRow(sval("z"), 2, 0, [][]Value{nil, {sval("t1-0")}, {sval("t2-0")}, nil, nil, nil, nil}, newRand(1))) {
		t.Error("the model refused a well-formed row")
	}
}

// The gate must pass an honest run and catch a wrong verdict, a wrong final
// state, and — on the durable workload — both after recovery.
func TestGateCatchesCorruption(t *testing.T) {
	ctx := context.Background()
	p := tinyPlan(t, "durable-write-chain", 1)
	s, cs, _, err := ready(ctx, p, t.TempDir()+"/wal", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	runSegments(ctx, cs, 1, segments+1, nil)
	if problems, rejected := gate(s, cs); len(problems) != 0 || rejected != p.rejected || rejected == 0 {
		t.Fatalf("honest run: problems %v, %d rejected (stream holds %d)", problems, rejected, p.rejected)
	}

	cs[0].got[17] ^= 1
	if problems, _ := gate(s, cs); len(problems) == 0 {
		t.Error("the gate missed a flipped verdict")
	}
	cs[0].got[17] ^= 1

	// A row the model does not know about: one lost update's worth of damage.
	extra := chainRow(sval("smuggled"), 0, 0, nil, newRand(1))
	if err := s.owner.InsertCtx(ctx, "MERGED", extra); err != nil {
		t.Fatal(err)
	}
	problems, _ := gate(s, cs)
	if len(problems) == 0 {
		t.Fatal("the gate missed a row the model does not hold")
	}
	if !strings.Contains(strings.Join(problems, "\n"), "MERGED") {
		t.Errorf("the gate's report does not name the relation: %v", problems)
	}
	if err := s.owner.DeleteCtx(ctx, "MERGED", extra[:1]); err != nil {
		t.Fatal(err)
	}
	if rp, recoverS, disk := recoverGate(s); len(rp) != 0 || recoverS <= 0 || disk <= 0 {
		t.Errorf("recovery gate: problems %v, recover_s %v, disk ratio %v", rp, recoverS, disk)
	}
	if problems, _ := gate(s, cs); len(problems) != 0 {
		t.Errorf("after recovery the state no longer matches the model: %v", problems)
	}
}

// -smoke: every workload, both modes, every declared metric exactly once
// with its declared unit; wal.* is 0 off the durable workload and the
// read-only workload takes no lock (checkShape).
func TestSmoke(t *testing.T) {
	if err := smokeAll(options{seed: 1, seconds: 8, outDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := map[string]float64{}
	for _, d := range endToEnd {
		bound[d.Name] = d.Bound
	}
	// set builds five runs whose metrics are base scaled by the given factors.
	set := func(base float64, factors map[string]float64, jitter map[string]float64) *resultFile {
		rf := &resultFile{}
		for i := -2; i <= 2; i++ {
			m := map[string]value{}
			for name, f := range factors {
				m[name] = value{Value: base * f * (1 + float64(i)*jitter[name])}
			}
			rf.Runs = append(rf.Runs, &result{Workload: "embed-read-base", Metrics: m})
		}
		return rf
	}
	same := map[string]float64{"ops_per_s": 1, "op_p50_us": 1, "op_p99_us": 1, "cpu_us_per_op": 1}
	old := set(100, same, map[string]float64{"cpu_us_per_op": bound["cpu_us_per_op"]}) // one metric too noisy to call
	new := set(100, map[string]float64{
		"ops_per_s":     1 + 1.5*bound["ops_per_s"],  // higher is better
		"op_p50_us":     1 + 0.25*bound["op_p50_us"], // within the bound
		"op_p99_us":     1 + 1.5*bound["op_p99_us"],  // lower is better
		"cpu_us_per_op": 1 - 1.5*bound["cpu_us_per_op"],
	}, nil)
	want := map[string]string{"ops_per_s": "improved", "op_p50_us": "unchanged", "op_p99_us": "regressed", "cpu_us_per_op": "unresolved"}
	seen := 0
	for _, r := range compareSets(old, new, 1, false) {
		if w, ok := want[r.Metric]; ok {
			seen++
			if r.Verdict != w {
				t.Errorf("%s: verdict %s, want %s (%+v)", r.Metric, r.Verdict, w, r)
			}
		}
	}
	if seen != len(want) {
		t.Errorf("compared %d of %d metrics", seen, len(want))
	}
	// The A/A limit is half the bound: a drift of 3/4 of the bound passes
	// -compare and fails -aa.
	drift := set(100, map[string]float64{"op_p50_us": 1 + 0.75*bound["op_p50_us"]}, nil)
	if r := compareSets(old, drift, 1, false); len(r) != 1 || r[0].Verdict != "unchanged" {
		t.Errorf("3/4 of the bound against the bound: %+v", r)
	}
	if r := compareSets(old, drift, 0.5, false); len(r) != 1 || r[0].Verdict != "regressed" {
		t.Errorf("3/4 of the bound against half of it: %+v", r)
	}
}

// BENCHMARK.json is the contract the driver reads; the tables in this
// package are what the program reports. They must be the same list.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, workloads.go %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d declared", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the sizes were calibrated for %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
}
