package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/workload"
)

// segments is how many equal-op pieces the timed phase is cut into; every
// time metric is the median of the per-segment values, so a burst from a
// neighbour spoils a segment, not the run. One more segment of the same
// length runs first, untimed, as the warm-up (the first 1/21 ≈ 5 % of ops).
const segments = 20

// runSeconds is the run_seconds of BENCHMARK.json the op counts are sized for.
const runSeconds = 12

type opKind uint8

const (
	opFetch opKind = iota
	opInsert
	opUpdate
	opDelete
	opBatch
	// opProfile is the paper's object-profile query on the unmerged design:
	// one Fetch per member relation of the merge set, same key.
	opProfile
	numKinds
)

var kindNames = [numKinds]string{"fetch", "insert", "update", "delete", "batch", "profile"}

// An op's outcome, as the loop records it and the model predicts it: the low
// bits say which of the op's fetches found a row; the two high bits say the
// program refused the op with a constraint violation, or failed it otherwise.
const (
	vRejected uint16 = 1 << 14
	vFailed   uint16 = 1 << 15
)

// op is one pre-generated operation. It refers to tuples built during
// set-up, so that executing it allocates nothing in the benchmark's own code.
type op struct {
	kind opKind
	rel  uint8  // index into plan.rels
	want uint16 // outcome the model predicts
	key  int32  // index into plan.keys (fetch, update, delete, profile)
	arg  int32  // index into plan.tuples (insert, update) or plan.batches
}

// spec is one workload. The sizes are frozen: they were calibrated once on
// the 2-core sandbox so that opsPerSecond × the run_seconds of BENCHMARK.json
// fills that many seconds, and a run executes that op count whatever its
// speed — so count metrics repeat exactly.
type spec struct {
	name    string
	why     string
	clients int
	// rows is the number of E0 objects loaded (for durable-write-chain, of
	// merged rows); targets the number of rows of each Ti.
	rows, targets int
	opsPerSecond  int
	// setups is how many times a run sets the workload up; setup_s is their
	// median. A one-second set-up needs more repetitions than a three-second
	// one to be as steady.
	setups int
	// mix is the exact number of ops of each kind in every block of ops;
	// each block is shuffled, so the mix holds in every segment and is the
	// same for every seed.
	mix [numKinds]int
	// checkpoints is how many times client 0 calls Checkpoint during the
	// timed phase, at fixed op counts (never on a timer).
	checkpoints int
	shards      int
	durable     bool
	remote      bool
	generate    func(p *plan, rng *rand.Rand)
}

var specs = []*spec{
	{
		name:    "embed-read-base",
		why:     "profile query (9 Fetch) on the unmerged star design, embedded, keys uniform over a working set beyond the CPU cache: engine read path and immap only; a codec, WAL or router change must not move it",
		clients: 1, rows: 30000, targets: 4096, opsPerSecond: 105000, setups: 3,
		mix:      [numKinds]int{opProfile: 100},
		generate: genEmbedRead,
	},
	{
		name:    "remote-mixed-merged",
		why:     "2 clients over TCP to a server migrated live to the Prop. 5.2 merged design, 90% Fetch of one merged row, 10% writes: framing, codec, admission and client pool dominate; set-up times Merge+MapState",
		clients: 2, rows: 16000, targets: 4096, opsPerSecond: 45000, setups: 3,
		mix:      [numKinds]int{opFetch: 90, opInsert: 6, opUpdate: 2, opDelete: 2},
		remote:   true,
		generate: genRemoteMixed,
	},
	{
		name:    "durable-write-chain",
		why:     "write-heavy mix on the merged chain design with a WAL, varied null patterns, 1% of inserts violating null-existence: validation, MVCC publish, WAL append, checkpoints, on the read workload's engine",
		clients: 1, rows: 20000, targets: 1024, opsPerSecond: 29000, setups: 5,
		mix:         [numKinds]int{opInsert: 100, opUpdate: 50, opDelete: 30, opFetch: 20},
		checkpoints: 3,
		durable:     true,
		generate:    genDurableChain,
	},
	{
		name:    "sharded-write-base",
		why:     "2 clients inserting through a 4-shard router on the unmerged star design, 3/4 of foreign keys remote, half from a hot set that fits the probe cache, plus cross-shard batches: routing, locks, probes",
		clients: 2, rows: 0, targets: 8192, opsPerSecond: 24000, setups: 5,
		mix:      [numKinds]int{opInsert: 70, opBatch: 10, opFetch: 20},
		shards:   4,
		generate: genShardedWrite,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

func (s *spec) blockLen() int {
	n := 0
	for _, c := range s.mix {
		n += c
	}
	return n
}

// plan is everything a run feeds the program: the designs, the initial
// state, the op streams of each client, and the state the model says the
// streams leave behind. It is a pure function of (spec, seed, size).
type plan struct {
	spec    *spec
	clients int
	segOps  int // ops per client per segment; a stream holds (segments+1)·segOps
	// rows and targets are the spec's sizes, scaled down by -smoke.
	rows, targets int
	// load is the design the initial state is loaded under, serve the one
	// the timed phase runs on. They differ on remote-mixed-merged, where
	// set-up migrates load → serve through merged.
	load, serve *schema.Schema
	merged      *core.MergedScheme
	initial     map[string][]relation.Tuple
	rels        []string // op.rel → relation name
	profile     []string // member relations of the profile query
	keys        []relation.Tuple
	tuples      []relation.Tuple
	batches     [][]engine.BatchOp
	streams     [][]op
	model       *model // after generation: the expected final state
	rejected    int    // constraint rejections the streams must provoke
}

// newPlan generates the inputs of one run. ops is the timed op count over
// all clients; it is rounded down so every segment holds whole mix blocks.
func newPlan(s *spec, seed int64, clients, rows, ops int) *plan {
	block := s.blockLen()
	segOps := ops / (segments * clients) / block * block
	if segOps < block {
		segOps = block
	}
	p := &plan{
		spec: s, clients: clients, segOps: segOps, rows: rows, targets: s.targets,
		initial: map[string][]relation.Tuple{}, model: newModel(),
		streams: make([][]op, clients),
	}
	s.generate(p, rand.New(rand.NewSource(seed)))
	return p
}

func (p *plan) streamLen() int { return (segments + 1) * p.segOps }

// checkpointEvery is the op count between client 0's Checkpoint calls (0:
// none). The calls land in timed segments 6, 13 and 19, never in the warm-up.
func (p *plan) checkpointEvery() int {
	if p.spec.checkpoints == 0 {
		return 0
	}
	return segments * p.segOps / p.spec.checkpoints
}

// kinds returns the shuffled kind sequence of one client's stream.
func (p *plan) kinds(rng *rand.Rand) []opKind {
	var block []opKind
	for k, n := range p.spec.mix {
		for i := 0; i < n; i++ {
			block = append(block, opKind(k))
		}
	}
	out := make([]opKind, 0, p.streamLen())
	for len(out) < p.streamLen() {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}

func (p *plan) rel(name string) uint8 {
	for i, r := range p.rels {
		if r == name {
			return uint8(i)
		}
	}
	p.rels = append(p.rels, name)
	return uint8(len(p.rels) - 1)
}

func (p *plan) addKey(v relation.Value) int32 {
	p.keys = append(p.keys, relation.Tuple{v})
	return int32(len(p.keys) - 1)
}

func (p *plan) addTuple(t relation.Tuple) int32 {
	p.tuples = append(p.tuples, t)
	return int32(len(p.tuples) - 1)
}

func (p *plan) loadRow(rel string, tup relation.Tuple) {
	p.initial[rel] = append(p.initial[rel], tup)
}

func sval(format string, a ...any) relation.Value {
	return relation.NewString(fmt.Sprintf(format, a...))
}

// liveSet is the generator's view of which keys a client may still fetch,
// update or delete: pick is uniform, remove is O(1).
type liveSet struct {
	keys []int32
	pos  map[int32]int
}

func newLiveSet() *liveSet { return &liveSet{pos: map[int32]int{}} }

func (l *liveSet) add(k int32) {
	l.pos[k] = len(l.keys)
	l.keys = append(l.keys, k)
}

func (l *liveSet) pick(rng *rand.Rand) int32 { return l.keys[rng.Intn(len(l.keys))] }

func (l *liveSet) remove(k int32) {
	i := l.pos[k]
	last := l.keys[len(l.keys)-1]
	l.keys[i] = last
	l.pos[last] = i
	l.keys = l.keys[:len(l.keys)-1]
	delete(l.pos, k)
}

// star builds the star design's pieces shared by three workloads: the base
// schema, the Ti value pools (loaded into plan.initial), and the member list.
func (p *plan) star(n int) (base *schema.Schema, tvals [][]relation.Value) {
	base, err := translate.MS(workload.StarEER(n))
	if err != nil {
		panic(err) // the fixture is a constant; it cannot fail to translate
	}
	tvals = make([][]relation.Value, n+1)
	for i := 1; i <= n; i++ {
		tn := fmt.Sprintf("T%d", i)
		for j := 0; j < p.targets; j++ {
			v := sval("t%d-%d", i, j)
			tvals[i] = append(tvals[i], v)
			p.loadRow(tn, relation.Tuple{v})
		}
	}
	p.profile = []string{"E0"}
	for i := 1; i <= n; i++ {
		p.profile = append(p.profile, fmt.Sprintf("R%d", i))
	}
	return base, tvals
}

// starModel declares the unmerged star design to the model.
func (p *plan) starModel(n int) {
	p.model.addRelation("E0")
	for i := 1; i <= n; i++ {
		p.model.addRelation(fmt.Sprintf("T%d", i))
		p.model.addRelation(fmt.Sprintf("R%d", i), fkRule{0, "E0"}, fkRule{1, fmt.Sprintf("T%d", i)})
	}
}

// mergedModel declares a merged design (one MERGED relation over E0 and
// R1..Rn, key copies removed) to the model.
func (p *plan) mergedModel(n int, chain bool) {
	var fks []fkRule
	for i := 1; i <= n; i++ {
		p.model.addRelation(fmt.Sprintf("T%d", i))
		fks = append(fks, fkRule{i, fmt.Sprintf("T%d", i)})
	}
	p.model.addRelation("MERGED", fks...)
	if chain {
		p.model.chain = "MERGED"
	}
}

func (p *plan) seedModelFromInitial() {
	for rel, rows := range p.initial {
		for _, t := range rows {
			p.model.load(rel, t)
		}
	}
}

const starN = 8

// genEmbedRead: rows E0 objects, each in every Ri with probability 7/8;
// every op is one profile query, 1 in 100 of them for a key that does not
// exist.
func genEmbedRead(p *plan, rng *rand.Rand) {
	base, tvals := p.star(starN)
	p.load, p.serve = base, base
	p.starModel(starN)
	rows := p.rows
	found := make([]uint16, rows)
	for k := 0; k < rows; k++ {
		kv := sval("e-%d", k)
		p.addKey(kv)
		p.loadRow("E0", relation.Tuple{kv})
		found[k] = 1
		for i := 1; i <= starN; i++ {
			if rng.Intn(8) == 0 {
				continue
			}
			p.loadRow(p.profile[i], relation.Tuple{kv, tvals[i][rng.Intn(len(tvals[i]))]})
			found[k] |= 1 << i
		}
	}
	absent := rows/100 + 1
	for k := 0; k < absent; k++ {
		p.addKey(sval("absent-%d", k))
	}
	p.seedModelFromInitial()
	ops := make([]op, p.streamLen())
	for i := range ops {
		if i%100 == 99 {
			ops[i] = op{kind: opProfile, key: int32(rows + rng.Intn(absent))}
			continue
		}
		k := rng.Intn(rows)
		ops[i] = op{kind: opProfile, key: int32(k), want: found[k]}
	}
	p.streams[0] = ops
}

// mergedRow draws a row of the merged star design: each of the n foreign
// keys is null with probability 1/8.
func mergedRow(key relation.Value, tvals [][]relation.Value, rng *rand.Rand) relation.Tuple {
	t := make(relation.Tuple, 1, len(tvals))
	t[0] = key
	for i := 1; i < len(tvals); i++ {
		if rng.Intn(8) == 0 {
			t = append(t, relation.Null())
		} else {
			t = append(t, tvals[i][rng.Intn(len(tvals[i]))])
		}
	}
	return t
}

// genRemoteMixed: the base star state is loaded and migrated to the merged
// design during set-up; the model holds the merged rows the η mapping must
// produce. Each client works on its own half of the keys, so the final state
// does not depend on how the two streams interleave.
func genRemoteMixed(p *plan, rng *rand.Rand) {
	base, tvals := p.star(starN)
	m, err := core.Merge(base, workload.MergeSetFor(base, "E0"), "MERGED")
	if err != nil {
		panic(err)
	}
	m.RemoveAll()
	p.load, p.serve, p.merged = base, m.Schema, m
	p.mergedModel(starN, false)
	for i := 1; i <= starN; i++ {
		for _, t := range p.initial[fmt.Sprintf("T%d", i)] {
			p.model.load(fmt.Sprintf("T%d", i), t)
		}
	}
	live := make([]*liveSet, p.clients)
	for c := range live {
		live[c] = newLiveSet()
	}
	for k := 0; k < p.rows; k++ {
		kv := sval("e-%d", k)
		row := mergedRow(kv, tvals, rng)
		p.loadRow("E0", relation.Tuple{kv})
		for i := 1; i <= starN; i++ {
			if !row[i].IsNull() {
				p.loadRow(p.profile[i], relation.Tuple{kv, row[i]})
			}
		}
		p.model.load("MERGED", row)
		live[k%p.clients].add(p.addKey(kv))
	}
	absent := p.addKey(sval("absent"))
	rel := p.rel("MERGED")
	for c := range p.streams {
		kinds := p.kinds(rng)
		ops := make([]op, len(kinds))
		fetches := 0
		for i, kind := range kinds {
			o := op{kind: kind, rel: rel}
			switch kind {
			case opFetch:
				fetches++
				if fetches%100 == 0 {
					o.key = absent
					break
				}
				o.key, o.want = live[c].pick(rng), 1
			case opInsert:
				kv := sval("n%d-%d", c, i)
				row := mergedRow(kv, tvals, rng)
				o.arg = p.addTuple(row)
				p.mustAccept(p.model.insert("MERGED", row), o)
				live[c].add(p.addKey(kv))
			case opUpdate:
				o.key = live[c].pick(rng)
				row := mergedRow(p.keys[o.key][0], tvals, rng)
				o.arg = p.addTuple(row)
				p.mustAccept(p.model.update("MERGED", p.keys[o.key], row), o)
			case opDelete:
				o.key = live[c].pick(rng)
				p.mustAccept(p.model.remove("MERGED", p.keys[o.key]), o)
				live[c].remove(o.key)
			}
			ops[i] = o
		}
		p.streams[c] = ops
	}
}

// mustAccept guards the generators: an op meant to succeed that the model
// refuses is a bug in the generator, not a property of the program.
func (p *plan) mustAccept(ok bool, o op) {
	if !ok {
		panic(fmt.Sprintf("relbench: generator produced a %s the model refuses", kindNames[o.kind]))
	}
}

const chainN = 6

// chainRow builds a merged chain row whose first depth foreign keys are set.
// skip > 0 nulls column skip while leaving the later ones set, which breaks
// the null-existence chain.
func chainRow(key relation.Value, depth, skip int, tvals [][]relation.Value, rng *rand.Rand) relation.Tuple {
	t := make(relation.Tuple, chainN+1)
	t[0] = key
	for i := 1; i <= chainN; i++ {
		if i <= depth && i != skip {
			t[i] = tvals[i][rng.Intn(len(tvals[i]))]
		} else {
			t[i] = relation.Null()
		}
	}
	return t
}

func depthOf(t relation.Tuple) int {
	d := 0
	for i := 1; i < len(t) && !t[i].IsNull(); i++ {
		d++
	}
	return d
}

// genDurableChain: the merged chain design, where Ri.Ti.ID may be set only
// if R(i-1).T(i-1).ID is. Inserts draw a chain depth 0..6, updates move a
// row to another depth, and one insert in 100 skips a link and must be
// refused.
func genDurableChain(p *plan, rng *rand.Rand) {
	base, err := translate.MS(workload.ChainEER(chainN))
	if err != nil {
		panic(err)
	}
	m, err := core.Merge(base, workload.MergeSetFor(base, "E0"), "MERGED")
	if err != nil {
		panic(err)
	}
	m.RemoveAll()
	p.load, p.serve, p.merged = m.Schema, m.Schema, nil
	tvals := make([][]relation.Value, chainN+1)
	for i := 1; i <= chainN; i++ {
		for j := 0; j < p.targets; j++ {
			v := sval("t%d-%d", i, j)
			tvals[i] = append(tvals[i], v)
			p.loadRow(fmt.Sprintf("T%d", i), relation.Tuple{v})
		}
	}
	p.mergedModel(chainN, true)
	live := newLiveSet()
	for k := 0; k < p.rows; k++ {
		kv := sval("e-%d", k)
		p.loadRow("MERGED", chainRow(kv, rng.Intn(chainN+1), 0, tvals, rng))
		live.add(p.addKey(kv))
	}
	p.seedModelFromInitial()
	absent := p.addKey(sval("absent"))
	rel := p.rel("MERGED")
	kinds := p.kinds(rng)
	ops := make([]op, len(kinds))
	inserts := 0
	for i, kind := range kinds {
		o := op{kind: kind, rel: rel}
		switch kind {
		case opFetch:
			if i%50 == 0 {
				o.key = absent
				break
			}
			o.key, o.want = live.pick(rng), 1
		case opInsert:
			inserts++
			kv := sval("n-%d", i)
			if inserts%100 == 0 {
				skip := 1 + rng.Intn(chainN-1)
				row := chainRow(kv, skip+1+rng.Intn(chainN-skip), skip, tvals, rng)
				o.arg, o.want = p.addTuple(row), vRejected
				if p.model.insert("MERGED", row) {
					panic("relbench: the model accepted a row that breaks the null-existence chain")
				}
				p.rejected++
				break
			}
			row := chainRow(kv, rng.Intn(chainN+1), 0, tvals, rng)
			o.arg = p.addTuple(row)
			p.mustAccept(p.model.insert("MERGED", row), o)
			live.add(p.addKey(kv))
		case opUpdate:
			o.key = live.pick(rng)
			old, _ := p.model.get("MERGED", p.keys[o.key])
			depth := (depthOf(old) + 1 + rng.Intn(chainN)) % (chainN + 1) // any depth but the old one
			row := chainRow(p.keys[o.key][0], depth, 0, tvals, rng)
			o.arg = p.addTuple(row)
			p.mustAccept(p.model.update("MERGED", p.keys[o.key], row), o)
		case opDelete:
			o.key = live.pick(rng)
			p.mustAccept(p.model.remove("MERGED", p.keys[o.key]), o)
			live.remove(o.key)
		}
		ops[i] = o
	}
	p.streams[0] = ops
}

const (
	batchLen = 8
	// hotTargets is the size of each Ti's hot set. 8 relations × 128 keys =
	// 1 024 hot keys, of which a shard sees 3/4 as remote: they fit its
	// 4 096-entry probe cache. The cold half draws from all of Ti
	// (8 × 8 192 = 65 536 keys), which does not.
	hotTargets = 128
)

// genShardedWrite: E0 is preloaded with exactly the keys the streams will
// reference, so every timed insert into an Ri is fresh: pass i of a client
// inserts one Ri row for each of its E0 keys in turn, so consecutive inserts
// — and the 8 inserts of a batch — land on different shards.
func genShardedWrite(p *plan, rng *rand.Rand) {
	base, tvals := p.star(starN)
	p.load, p.serve = base, base
	p.starModel(starN)
	perClient := p.streamLen() / p.spec.blockLen() * (p.spec.mix[opInsert] + batchLen*p.spec.mix[opBatch])
	own := (perClient + starN - 1) / starN // E0 keys per client
	ownKeys := make([][]int32, p.clients)
	for c := range ownKeys {
		for k := 0; k < own; k++ {
			kv := sval("e%d-%d", c, k)
			p.loadRow("E0", relation.Tuple{kv})
			ownKeys[c] = append(ownKeys[c], p.addKey(kv))
		}
	}
	p.seedModelFromInitial()
	relIdx := make([]uint8, starN+1)
	relIdx[0] = p.rel("E0")
	for i := 1; i <= starN; i++ {
		relIdx[i] = p.rel(p.profile[i])
	}
	target := func(i int) relation.Value {
		if rng.Intn(2) == 0 {
			return tvals[i][rng.Intn(hotTargets)]
		}
		return tvals[i][rng.Intn(len(tvals[i]))]
	}
	type slot struct {
		rel uint8
		key int32
	}
	for c := range p.streams {
		kinds := p.kinds(rng)
		ops := make([]op, len(kinds))
		next := 0 // insert slots used so far
		var done []slot
		fresh := func() (int, int32, relation.Tuple) {
			i, key := 1+next/own, ownKeys[c][next%own]
			next++
			row := relation.Tuple{p.keys[key][0], target(i)}
			p.mustAccept(p.model.insert(p.profile[i], row), op{kind: opInsert})
			return i, key, row
		}
		for j, kind := range kinds {
			o := op{kind: kind}
			switch kind {
			case opInsert:
				i, key, row := fresh()
				o.rel, o.arg = relIdx[i], p.addTuple(row)
				done = append(done, slot{relIdx[i], key})
			case opBatch:
				batch := make([]engine.BatchOp, batchLen)
				for b := range batch {
					i, _, row := fresh()
					batch[b] = engine.Ins(p.profile[i], row)
				}
				p.batches = append(p.batches, batch)
				o.arg = int32(len(p.batches) - 1)
			case opFetch:
				o.want = 1
				if len(done) > 0 && rng.Intn(2) == 0 {
					s := done[rng.Intn(len(done))]
					o.rel, o.key = s.rel, s.key
				} else {
					o.rel, o.key = relIdx[0], ownKeys[c][rng.Intn(own)]
				}
			}
			ops[j] = o
		}
		p.streams[c] = ops
	}
}

// streamHash fingerprints everything the program will be fed, so a test can
// pin "same seed → same inputs".
func (p *plan) streamHash() uint64 {
	h := fnv.New64a()
	put := func(t relation.Tuple) { h.Write([]byte(t.EncodeKey())); h.Write([]byte{0xff}) }
	names := make([]string, 0, len(p.initial))
	for name := range p.initial {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		for _, t := range p.initial[name] {
			put(t)
		}
	}
	for _, ops := range p.streams {
		for _, o := range ops {
			h.Write([]byte{byte(o.kind), o.rel, byte(o.want), byte(o.want >> 8)})
			switch o.kind {
			case opFetch, opDelete, opProfile:
				put(p.keys[o.key])
			case opInsert:
				put(p.tuples[o.arg])
			case opUpdate:
				put(p.keys[o.key])
				put(p.tuples[o.arg])
			case opBatch:
				for _, b := range p.batches[o.arg] {
					h.Write([]byte(b.Relation))
					put(b.Tuple)
				}
			}
		}
	}
	return h.Sum64()
}
