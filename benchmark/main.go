// Command relbench is this repository's benchmark: four fixed-work
// workloads over the Session API, eight end-to-end metrics measured with
// tracing off, and a traced run that attributes time to layers from outside
// the program. README.md has the tables; BENCHMARK.json the contract.
//
//	relbench -workload NAME -seed N -seconds S -trace 0|1   one run
//	relbench -smoke                                         all four at 1/1000 size
//	relbench -runs N -out FILE                              N runs of every workload
//	relbench -aa N -out FILE                                A/A self-check
//	relbench -compare OLD.json NEW.json                     mechanical diff
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/state"
)

// options selects one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// scale shrinks the op count and the state (1 for a real run, 0.001 for
	// -smoke).
	scale  float64
	outDir string
}

// result is the run's JSON file: the metrics, and the evidence a reviewer
// needs to tell a bad machine hour from a regression.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    bool    `json:"trace"`
	Scale    float64 `json:"scale"`

	Env struct {
		GoVersion  string `json:"go_version"`
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Commit     string `json:"commit"`
		WALFS      string `json:"wal_fs"`
	} `json:"env"`

	Clients    int    `json:"clients"`
	SegmentOps int    `json:"segment_ops_per_client"`
	StreamHash string `json:"stream_hash"`

	// Noise is the evidence for telling a bad machine hour from a
	// regression; none of it is gated.
	Noise struct {
		StealPct        float64 `json:"env.steal_pct"`
		InvolCtxSwitch  int64   `json:"env.invol_ctx_switches"`
		GCCycles        uint32  `json:"runtime.gc_cycles"`
		GCPauseMs       float64 `json:"runtime.gc_pause_ms"`
		OutlierSegments int     `json:"segments_over_15pct_off_median"`
	} `json:"noise"`

	Correct          bool     `json:"correct"`
	Attempted        int      `json:"ops_attempted"`
	Failed           int      `json:"ops_failed"`
	RejectedExpected int      `json:"ops_rejected_expected"`
	Problems         []string `json:"problems,omitempty"`
	Warnings         []string `json:"warnings,omitempty"`

	SetupS   []float64        `json:"setup_s_each,omitempty"`
	Segments []segmentStats   `json:"segments,omitempty"`
	Samples  int              `json:"latency_samples"`
	Metrics  map[string]value `json:"metrics"`
	Spans    []spanStats      `json:"spans,omitempty"`
	Budget   []budgetLine     `json:"budget,omitempty"`
	// PhaseS is the wall time of the run's phases, set-up to probes.
	PhaseS map[string]float64 `json:"phase_s"`
	// Claim is always null: this benchmark measures, it does not assert a gain.
	Claim *string `json:"claim"`
}

// line is the contract's last output line.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(o options) (*result, error) {
	sp := specByName(o.workload)
	if sp == nil {
		var names []string
		for _, s := range specs {
			names = append(names, s.name)
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)

	clients, ops := sp.clients, float64(sp.opsPerSecond*o.seconds)*o.scale
	if o.trace {
		// One client, so that spans nest unambiguously by time; a quarter of
		// the ops, so that the traced run and its probes fit one time slot.
		clients, ops = 1, ops/4
	}
	t0 := time.Now()
	p := newPlan(sp, o.seed, clients, max(64, int(float64(sp.rows)*o.scale)), int(ops))

	res := &result{Workload: sp.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Scale: o.scale, PhaseS: map[string]float64{}}
	phase := func(name string) { res.PhaseS[name], t0 = seconds(t0), time.Now() }
	phase("generate")
	res.Env.GoVersion, res.Env.NProc, res.Env.GOMAXPROCS = runtime.Version(), runtime.NumCPU(), procs
	res.Env.Commit = gitCommit()
	res.Clients, res.SegmentOps, res.StreamHash = clients, p.segOps, fmt.Sprintf("%016x", p.streamHash())

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	walDir := filepath.Join(o.outDir, fmt.Sprintf("wal-%s-%d", sp.name, os.Getpid()))
	defer os.RemoveAll(walDir)
	fsType, fsName := fsOf(o.outDir)
	res.Env.WALFS = fsName

	ctx := context.Background()
	var tr *tracer
	reps := sp.setups
	if o.trace {
		reps = 1
		calls := 1
		if sp.mix[opProfile] > 0 {
			calls = len(p.profile)
		}
		tr = newTracer(segments/2*p.segOps*(1+2*calls) + 1024)
	}
	var s *sut
	var cs []*client
	for r := 0; r < reps; r++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", r, err)
			}
		}
		var dur float64
		var err error
		if s, cs, dur, err = ready(ctx, p, walDir, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupS = append(res.SetupS, dur)
	}
	defer func() { s.close() }()
	phase("setup")

	traced := func(seg int) bool { return seg%2 == 0 }
	if !o.trace {
		traced = nil
	}
	c0, u0 := counters(s.reg), readUsage()
	runSegments(ctx, cs, 1, segments+1, traced)
	u1, c1 := readUsage(), counters(s.reg)
	phase("timed")
	heap := heapLiveMB()

	timedOps := float64(segments * p.segOps * clients)
	lat, dur := make([][]int32, clients), make([][]int64, clients)
	for i, c := range cs {
		lat[i], dur[i] = c.lat, c.dur
	}
	res.Segments = summarize(dur, lat, p.segOps)
	res.Samples = int(timedOps)

	problems, rejected := gate(s, cs)
	layer := map[string]float64{}
	if sp.durable {
		rp, recoverS, diskRatio := recoverGate(s)
		problems = append(problems, rp...)
		layer["engine.recover_s"], layer["wal.disk_bytes_per_user_byte"] = recoverS, diskRatio
	}
	res.Attempted, res.RejectedExpected, res.Problems = clients*p.streamLen(), rejected, problems
	res.Failed = len(problems)
	res.Correct = res.Failed == 0
	phase("gate")

	nz := &res.Noise
	nz.StealPct, nz.InvolCtxSwitch = stealPct(u0.steal, u1.steal), u1.invol-u0.invol
	nz.GCCycles, nz.GCPauseMs = u1.gcCycles-u0.gcCycles, float64(u1.gcPause-u0.gcPause)/1e6
	if nz.StealPct > 2 {
		res.Warnings = append(res.Warnings, fmt.Sprintf("env.steal_pct = %.1f %% > 2 %%: the hypervisor took CPU from this run", nz.StealPct))
	}
	// A traced run alternates traced and untraced segments, and a checkpoint
	// slows the segment it lands in; neither is a disturbance.
	if nz.OutlierSegments = outliers(res.Segments); nz.OutlierSegments > 3+sp.checkpoints && !o.trace {
		res.Warnings = append(res.Warnings, fmt.Sprintf("%d of %d segments are more than 15 %% off the segment median", nz.OutlierSegments, segments))
	}

	if !o.trace {
		res.Metrics = fill(endToEnd, map[string]float64{
			"setup_s":            median(res.SetupS),
			"ops_per_s":          segmentMedian(res.Segments, func(s segmentStats) float64 { return s.OpsPerS }),
			"op_p50_us":          segmentMedian(res.Segments, func(s segmentStats) float64 { return s.P50us }),
			"op_p99_us":          segmentMedian(res.Segments, func(s segmentStats) float64 { return s.P99us }),
			"cpu_us_per_op":      float64(u1.cpuNs-u0.cpuNs) / 1e3 / timedOps,
			"allocs_per_op":      float64(u1.mallocs-u0.mallocs) / timedOps,
			"alloc_bytes_per_op": float64(u1.bytes-u0.bytes) / timedOps,
			"heap_live_mb":       heap,
		})
		return res, nil
	}

	d := delta(c0, c1)
	for k, v := range s.timing {
		layer[k] = v
	}
	layer["relmerge.rejected_ops"] = float64(rejected)
	layer["relmerge.failed_ops"] = float64(res.Failed)
	layer["engine.checkpoint_s"] = float64(cs[0].ckptNs) / 1e9
	layer["runtime.gc_cycles"] = float64(nz.GCCycles)
	layer["runtime.gc_pause_ms"] = nz.GCPauseMs
	layer["env.steal_pct"] = nz.StealPct
	layer["env.invol_ctx_switches"] = float64(nz.InvolCtxSwitch)
	layer["env.gomaxprocs"] = float64(procs)
	layer["env.wal_fs"] = float64(fsType)
	countMetrics(d, timedOps, layer)
	res.Spans = spanMetrics(tr, sp, layer)
	var untracedRate, tracedRate []float64
	for i, seg := range res.Segments {
		if traced(i + 1) {
			tracedRate = append(tracedRate, seg.OpsPerS)
		} else {
			untracedRate = append(untracedRate, seg.OpsPerS)
		}
	}
	layer["trace.overhead_pct"] = 100 * (1 - ratio(median(tracedRate), median(untracedRate)))
	if tr.dropped.Load() > 0 {
		res.Warnings = append(res.Warnings, fmt.Sprintf("span buffer full: %d spans dropped", tr.dropped.Load()))
	}
	if err := runProbes(ctx, s, o, d, layer); err != nil {
		return nil, err
	}
	phase("probes")
	res.Budget = budget(sp, layer)
	for _, b := range res.Budget {
		if b.RemainderPct > 20 || b.RemainderPct < -20 {
			res.Warnings = append(res.Warnings, fmt.Sprintf("budget %s: the named parts leave %.0f %% of %.2f µs unexplained", b.Op, b.RemainderPct, b.TotalUs))
		}
	}
	res.Metrics = fill(perLayer, layer)
	if err := writeTrace(filepath.Join(o.outDir, "trace-"+sp.name+".json"), tr, res); err != nil {
		return nil, err
	}
	return res, nil
}

// countMetrics turns the registry deltas of the timed phase into the
// per-layer count metrics.
func countMetrics(d map[string]float64, ops float64, out map[string]float64) {
	for metric, counter := range map[string]string{
		"engine.index_lookups_per_op":      "engine.index_lookups",
		"engine.declarative_checks_per_op": "engine.declarative_checks",
		"engine.trigger_firings_per_op":    "engine.trigger_firings",
		"engine.lock_acquisitions_per_op":  "engine.lock_acquisitions",
		"engine.publishes_per_op":          "engine.mvcc.publishes",
		"wal.appends_per_op":               "wal.appends",
		"wal.bytes_per_op":                 "wal.append_bytes",
		"wal.fsyncs_per_op":                "wal.fsyncs",
		"shard.remote_probes_per_op":       "shard.probe.remote",
		"shard.overlay_hits_per_op":        "shard.probe.overlay_hits",
	} {
		out[metric] = d[counter] / ops
	}
	for metric, counter := range map[string]string{
		"engine.constraint_violations": "engine.constraint_violations",
		"wal.checkpoint_bytes":         "wal.checkpoint_bytes",
		"wal.fsync_s_total":            "wal.fsync_seconds.sum",
		"server.requests":              "server.requests",
		"server.overloaded":            "server.overloaded",
		"server.protocol_errors":       "server.protocol_errors",
		"shard.cross_batches":          "shard.batch.cross",
		"shard.compensations":          "shard.batch.compensations",
		"shard.cache_invalidations":    "shard.cache.invalidations",
	} {
		out[metric] = d[counter]
	}
	out["server.wire_bytes_per_op"] = (d["server.bytes_read"] + d["server.bytes_written"]) / ops
	out["server.coalesced_writes_per_batch"] = ratio(d["server.coalesced_writes"], d["server.coalesced_batches"])
	out["shard.probe_cache_hit_ratio"] = ratio(d["shard.probe.cache_hits"], d["shard.probe.cache_hits"]+d["shard.probe.remote"])
}

// spanMetrics derives the span-based per-layer metrics and returns the
// per-(layer, kind) summary for the result file.
func spanMetrics(tr *tracer, sp *spec, out map[string]float64) []spanStats {
	groups := groupSpans(tr.spans())
	rel := func(k opKind) spanStats { return groups[[2]uint8{layerRelmerge, uint8(k)}] }
	be := func(k opKind) spanStats { return groups[[2]uint8{layerBackend, uint8(k)}] }
	out["relmerge.fetch_p50_us"], out["relmerge.fetch_p99_us"] = rel(opFetch).P50us, rel(opFetch).P99us
	out["relmerge.insert_p50_us"], out["relmerge.insert_p99_us"] = rel(opInsert).P50us, rel(opInsert).P99us
	out["relmerge.update_p50_us"] = rel(opUpdate).P50us
	out["relmerge.delete_p50_us"] = rel(opDelete).P50us
	out["relmerge.batch_p50_us"] = rel(opBatch).P50us
	out["engine.fetch_self_us"] = be(opFetch).SelfP50us
	out["engine.insert_self_us"] = be(opInsert).SelfP50us
	out["engine.update_self_us"] = be(opUpdate).SelfP50us
	if sp.remote {
		// Everything between the Session call and the backend call is the
		// serving layer: pool, codec, TCP, admission queue, worker.
		out["server.self_us"] = rel(opFetch).SelfP50us
	}
	if sp.shards > 0 {
		out["shard.insert_us"], out["shard.fetch_us"] = be(opInsert).P50us, be(opFetch).P50us
	}
	var all []spanStats
	for _, g := range groups {
		all = append(all, g)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Layer != all[j].Layer {
			return all[i].Layer < all[j].Layer
		}
		return all[i].Kind < all[j].Kind
	})
	return all
}

// runProbes runs the layer probes that apply to the workload.
func runProbes(ctx context.Context, s *sut, o options, d, out map[string]float64) error {
	p := s.p
	// -smoke checks the shape of the output, not its values: it repeats each
	// probed call a hundredth as often.
	n := func(calls int) int { return max(16, int(float64(calls)*min(1, 10*o.scale))) }
	probeImmap(p, n, out)
	st := buildState(p)
	t0 := time.Now()
	if err := state.Consistent(p.load, st); err != nil {
		return err
	}
	out["state.consistent_s"] = seconds(t0)
	if p.spec.durable {
		dir := filepath.Join(o.outDir, fmt.Sprintf("walprobe-%d", os.Getpid()))
		defer os.RemoveAll(dir)
		if err := probeWAL(dir, int(ratio(d["wal.append_bytes"], d["wal.appends"])), n, out); err != nil {
			return err
		}
	}
	if p.spec.remote {
		if err := probeCodec(p, n, out); err != nil {
			return err
		}
		if err := probePing(ctx, s.sess, n, out); err != nil {
			return err
		}
		if err := probeCore(p, st, out); err != nil {
			return err
		}
	}
	if p.spec.shards > 0 {
		probeHashKey(p, out)
		bare, err := probeBareEngine(ctx, p, st)
		if err != nil {
			return err
		}
		out["shard.overhead_us"] = out["shard.insert_us"] - bare
	}
	return nil
}

// budgetLine says how much of one operation's median latency the named
// layer parts account for.
type budgetLine struct {
	Op           string             `json:"op"`
	TotalUs      float64            `json:"total_us"`
	Parts        map[string]float64 `json:"parts_us"`
	RemainderUs  float64            `json:"remainder_us"`
	RemainderPct float64            `json:"remainder_pct"`
}

// budget splits the median latency of each workload's dominant operation
// into the layer parts measured above. The parts come from different
// instruments (spans, probes), so the remainder is the honesty check: a
// large one means a layer is missing from the picture.
func budget(sp *spec, m map[string]float64) []budgetLine {
	mk := func(op string, total float64, parts map[string]float64) budgetLine {
		b := budgetLine{Op: op, TotalUs: total, Parts: parts, RemainderUs: total}
		for _, v := range parts {
			b.RemainderUs -= v
		}
		b.RemainderPct = 100 * ratio(b.RemainderUs, total)
		return b
	}
	switch {
	case sp.remote:
		return []budgetLine{mk("remote fetch", m["relmerge.fetch_p50_us"], map[string]float64{
			"server.ping_us (pool, framing, TCP, admission; no engine)": m["server.ping_us"],
			"server.encode_ns + server.decode_ns beyond a ping's":       (m["server.encode_ns"] + m["server.decode_ns"]) / 1e3,
			"engine.fetch_self_us": m["engine.fetch_self_us"],
		})}
	case sp.durable:
		// What is left is constraint validation, WAL record encoding and the
		// publish itself: nothing outside the engine can time those.
		return []budgetLine{mk("durable insert", m["relmerge.insert_p50_us"], map[string]float64{
			"wal.commit_us (record encoding excluded)": m["wal.commit_us"],
			"immap.set_ns × (1 pk + 6 fk indexes)":     7 * m["immap.set_ns"] / 1e3,
		})}
	case sp.shards > 0:
		// The remainder is shard.overhead_us: routing, edge locks and remote
		// probes, less what a shard saves by holding a quarter of the rows.
		return []budgetLine{mk("sharded insert", m["relmerge.insert_p50_us"], map[string]float64{
			"the same insert on one bare engine.DB": m["shard.insert_us"] - m["shard.overhead_us"],
		})}
	}
	return []budgetLine{mk("embedded fetch", m["relmerge.fetch_p50_us"], map[string]float64{
		"engine.fetch_self_us": m["engine.fetch_self_us"],
	})}
}

// writeTrace writes the trace summary and the first spans of the buffer.
func writeTrace(path string, tr *tracer, res *result) error {
	spans := tr.spans()
	if len(spans) > 5000 {
		spans = spans[:5000]
	}
	return writeJSON(path, struct {
		Workload string       `json:"workload"`
		Recorded int64        `json:"spans_recorded"`
		Dropped  int64        `json:"spans_dropped"`
		Layers   []string     `json:"layers"`
		Kinds    []string     `json:"kinds"`
		Summary  []spanStats  `json:"summary"`
		Budget   []budgetLine `json:"budget"`
		First    []span       `json:"first_spans"`
	}{res.Workload, tr.n.Load(), tr.dropped.Load(), layerNames[:], kindNames[:], res.Spans, res.Budget, spans})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitCommit reads HEAD without running git; a checkout that is not a
// repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(b))
	}
	return ref
}

// fsOf names the filesystem a directory lives on (statfs f_type).
func fsOf(dir string) (int64, string) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return 0, "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return int64(st.Type), "ext"
	case 0x01021994:
		return int64(st.Type), "tmpfs"
	}
	return int64(st.Type), fmt.Sprintf("%#x", st.Type)
}

// report prints the run for a person: every metric by name and unit, the
// budget, the warnings.
func report(res *result, defs []metricDef) {
	fmt.Printf("%s seed=%d trace=%v clients=%d ops=%d correct=%v failed=%d rejected_expected=%d\n",
		res.Workload, res.Seed, res.Trace, res.Clients, res.Attempted, res.Correct, res.Failed, res.RejectedExpected)
	for _, d := range defs {
		fmt.Printf("  %-36s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	for _, b := range res.Budget {
		fmt.Printf("  budget %s: %.2f us\n", b.Op, b.TotalUs)
		for name, v := range b.Parts {
			fmt.Printf("    %-58s %8.2f us\n", name, v)
		}
		fmt.Printf("    %-58s %8.2f us (%.0f %%)\n", "remainder", b.RemainderUs, b.RemainderPct)
	}
	for _, w := range res.Warnings {
		fmt.Printf("  warning: %s\n", w)
	}
}

func main() {
	var o options
	var trace int
	var smoke, compare, printContract bool
	var aa, runs int
	var out string
	flag.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "length the frozen op count is sized for")
	flag.IntVar(&trace, "trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&o.outDir, "outdir", "benchmark/out", "where result files, traces and the WAL go")
	flag.BoolVar(&smoke, "smoke", false, "run all four workloads, both modes, at 1/1000 size")
	flag.IntVar(&runs, "runs", 0, "run every workload this many times and write the results to -out")
	flag.IntVar(&aa, "aa", 0, "A/A self-check: two interleaved sets of this many runs per workload")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare OLD.json NEW.json")
	flag.StringVar(&out, "out", "", "file -runs and -aa write")
	flag.BoolVar(&printContract, "contract", false, "print BENCHMARK.json as this package declares it")
	flag.Parse()
	o.scale, o.trace = 1, trace != 0

	var err error
	switch {
	case printContract:
		var b []byte
		if b, err = json.MarshalIndent(contract(), "", "  "); err == nil {
			fmt.Println(string(b))
		}
	case compare:
		err = compareFiles(flag.Args())
	case aa > 0:
		err = selfCheck(aa, o, out)
	case runs > 0:
		var rs []*result
		if rs, err = runAll(runs, o, "run"); err == nil {
			err = writeJSON(out, resultFile{Runs: rs})
		}
	case smoke:
		err = smokeAll(o)
	default:
		var res *result
		if res, err = run(o); err != nil {
			break
		}
		name := fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, trace)
		if err = writeJSON(filepath.Join(o.outDir, name), res); err != nil {
			break
		}
		if !res.Correct {
			for _, p := range res.Problems {
				fmt.Fprintln(os.Stderr, "relbench: incorrect:", p)
			}
			os.Exit(1)
		}
		defs := endToEnd
		if o.trace {
			defs = perLayer
		}
		report(res, defs)
		var last []byte
		if last, err = json.Marshal(line{res.Correct, res.Attempted, res.Failed, res.Metrics}); err == nil {
			fmt.Println(string(last))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "relbench:", err)
		os.Exit(1)
	}
}

// contract is BENCHMARK.json: the driver's view of the tables in metrics.go
// and workloads.go.
func contract() any {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"},
		RunSeconds: runSeconds, EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, sp := range specs {
		doc.Workloads = append(doc.Workloads, workload{sp.name, sp.why})
	}
	return doc
}

// smokeAll runs every workload in both modes at 1/1000 size and checks the
// shape of what comes out; the tests call it too.
func smokeAll(o options) error {
	o.scale = 0.001
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			o.workload, o.trace = sp.name, traced
			res, err := run(o)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s: incorrect: %s", sp.name, strings.Join(res.Problems, "; "))
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if err := checkShape(res, defs); err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			fmt.Printf("smoke %-22s trace=%-5v ok (%d ops)\n", sp.name, traced, res.Attempted)
		}
	}
	return nil
}

// checkShape requires every declared metric exactly once with its declared
// unit, and the cross-workload predictions that are exact: no WAL traffic
// off the durable workload, no lock taken by the read-only one.
func checkShape(res *result, defs []metricDef) error {
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared but not reported", d.Name)
		}
		if v.Unit != d.Unit {
			return fmt.Errorf("metric %s reported in %q, declared in %q", d.Name, v.Unit, d.Unit)
		}
	}
	if !res.Trace {
		return nil
	}
	sp := specByName(res.Workload)
	for name, v := range res.Metrics {
		if strings.HasPrefix(name, "wal.") && !sp.durable && v.Value != 0 {
			return fmt.Errorf("%s = %v on a workload without a WAL", name, v.Value)
		}
	}
	if res.Workload == "embed-read-base" && res.Metrics["engine.lock_acquisitions_per_op"].Value != 0 {
		return fmt.Errorf("the read-only workload took locks: engine.lock_acquisitions_per_op = %v", res.Metrics["engine.lock_acquisitions_per_op"].Value)
	}
	return nil
}
