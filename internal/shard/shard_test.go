package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/wal"
)

func tup(vals ...any) relation.Tuple {
	out := make(relation.Tuple, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case nil:
			out[i] = relation.Null()
		case string:
			out[i] = relation.NewString(x)
		default:
			panic("bad test value")
		}
	}
	return out
}

// TestHashKeyGolden pins the partitioning hash to fixed values: the same
// key MUST route to the same shard across process restarts, architectures,
// and Go releases, because durable deployments re-open per-shard logs by
// position. If this test fails, the hash changed — which is a
// data-migration event, not a refactor.
func TestHashKeyGolden(t *testing.T) {
	golden := []struct {
		in   string
		want uint64
	}{
		{"", 0xefd01f60ba992926},
		{"a", 0x82a2a958a9bece5b},
		{"42", 0x810b196a56ee3cec},
		{"alpha\x00beta", 0xa94f3d2e3d0dabd8},
		{"user:1001", 0xa4c6bfa8864faf62},
		{"D\x001\x002", 0xa64637ddd1083eb},
		{"k-9999", 0xdda504833ec13590},
		{"\xff\xfe", 0x75c9056eb1c4b960},
	}
	for _, g := range golden {
		if got := HashKey(g.in); got != g.want {
			t.Errorf("HashKey(%q) = %#x, want %#x", g.in, got, g.want)
		}
	}
	// The frozen constants are FNV-1a 64 under a murmur fmix64 finalizer:
	// cross-check the FNV core against the stdlib on this architecture too.
	fmix := func(h uint64) uint64 {
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 33
		return h
	}
	for i := 0; i < 256; i++ {
		s := fmt.Sprintf("key-%d", i)
		h := fnv.New64a()
		h.Write([]byte(s))
		if HashKey(s) != fmix(h.Sum64()) {
			t.Fatalf("HashKey(%q) diverges from finalized FNV-1a", s)
		}
	}
}

// TestHashKeyBytes pins the byte-slice form the router routes with to
// HashKey: a key must hash alike however it is held.
func TestHashKeyBytes(t *testing.T) {
	for _, s := range []string{"", "a", "alpha\x00beta", "D\x001\x002", "\xff\xfe"} {
		if got, want := hashKey([]byte(s)), HashKey(s); got != want {
			t.Errorf("hashKey(%q) = %#x, HashKey = %#x", s, got, want)
		}
	}
}

// TestHashKeyLowBitsMixed pins the property that motivated the finalizer:
// modulo a power-of-two shard count, key families differing only in an
// even-valued prefix byte must NOT co-locate. Raw FNV-1a mod 2 reduces to
// byte-sum parity, which put every "d-N"/"r-N" pair on the same shard.
func TestHashKeyLowBitsMixed(t *testing.T) {
	split := 0
	for i := 0; i < 64; i++ {
		a := HashKey(fmt.Sprintf("d-%d", i)) % 2
		b := HashKey(fmt.Sprintf("r-%d", i)) % 2
		if a != b {
			split++
		}
	}
	// A mixed low bit splits roughly half the pairs; zero was the failure.
	if split < 16 {
		t.Fatalf("only %d/64 d-/r- key pairs land on different shards mod 2; low bits are not mixed", split)
	}
}

func openRouter(t *testing.T, n int) *Router {
	t.Helper()
	r, err := Open(figures.Fig3(), Config{Shards: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// keysOnDifferentShards finds two single-string keys owned by different
// shards (they exist for any router with >= 2 shards, quickly).
func keysOnDifferentShards(t *testing.T, r *Router, prefix string) (string, string) {
	t.Helper()
	first := fmt.Sprintf("%s-0", prefix)
	want := r.ShardOf(tup(first).EncodeKey())
	for i := 1; i < 10000; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if r.ShardOf(tup(k).EncodeKey()) != want {
			return first, k
		}
	}
	t.Fatal("no key pair on different shards")
	return "", ""
}

func TestRouterSingleOps(t *testing.T) {
	r := openRouter(t, 4)
	if err := r.InsertCtx(context.Background(), "COURSE", tup("c1")); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := r.GetByKeyCtx(context.Background(), "COURSE", tup("c1"))
	if !ok || !got.Identical(tup("c1")) {
		t.Error("GetByKey after insert")
	}
	if _, ok, _ := r.GetByKeyCtx(context.Background(), "COURSE", tup("zzz")); ok {
		t.Error("missing key found")
	}
	// The row lives only on its hash owner.
	owner := r.ShardOf(tup("c1").EncodeKey())
	for i := 0; i < r.Shards(); i++ {
		_, ok, _ := r.Shard(i).GetByKeyCtx(context.Background(), "COURSE", tup("c1"))
		if ok != (i == owner) {
			t.Errorf("shard %d has row = %v, owner is %d", i, ok, owner)
		}
	}
	// Unknown relation keeps the engine's error.
	if err := r.InsertCtx(context.Background(), "NOPE", tup("x")); !errors.Is(err, engine.ErrUnknownRelation) {
		t.Errorf("unknown relation error = %v", err)
	}
	if err := r.DeleteCtx(context.Background(), "COURSE", tup("zzz")); !errors.Is(err, engine.ErrNoSuchTuple) {
		t.Errorf("delete missing = %v", err)
	}
	if err := r.DeleteCtx(context.Background(), "COURSE", tup("c1")); err != nil {
		t.Fatal(err)
	}
}

// TestCrossShardForeignKey drives the two-step probe: TEACH references
// FACULTY through a non-routing attribute, so the referenced key can (and
// here does) live on a different shard than the inserting one.
func TestCrossShardForeignKey(t *testing.T) {
	r := openRouter(t, 4)
	cnr, ssn := keysOnDifferentShards(t, r, "k")
	for _, ins := range []struct {
		rel string
		tp  relation.Tuple
	}{
		{"PERSON", tup(ssn)},
		{"FACULTY", tup(ssn)},
		{"COURSE", tup(cnr)},
		{"DEPARTMENT", tup("d1")},
		{"OFFER", tup(cnr, "d1")},
	} {
		if err := r.InsertCtx(context.Background(), ins.rel, ins.tp); err != nil {
			t.Fatalf("insert %s: %v", ins.rel, err)
		}
	}
	before := r.ProbeStats()
	if err := r.InsertCtx(context.Background(), "TEACH", tup(cnr, ssn)); err != nil {
		t.Fatalf("cross-shard FK insert: %v", err)
	}
	after := r.ProbeStats()
	if after.RemoteProbes == before.RemoteProbes {
		t.Error("expected a remote probe for the cross-shard FACULTY reference")
	}
	// A dangling reference is rejected with the engine's violation kind.
	err := r.InsertCtx(context.Background(), "TEACH", tup("other-"+cnr, "missing-ssn"))
	var cv *engine.ConstraintViolation
	if !errors.As(err, &cv) || cv.Kind != engine.ForeignKeyViolation || cv.Op != "insert" {
		t.Errorf("dangling FK = %v", err)
	}
	// Referenced-side restrict crosses shards too: FACULTY's owner shard has
	// no local TEACH referencing it.
	err = r.DeleteCtx(context.Background(), "FACULTY", tup(ssn))
	if !errors.As(err, &cv) || cv.Kind != engine.RestrictViolation || cv.Op != "delete" {
		t.Errorf("cross-shard restrict = %v", err)
	}
	// Unreference, then the delete goes through.
	if err := r.DeleteCtx(context.Background(), "TEACH", tup(cnr)); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteCtx(context.Background(), "FACULTY", tup(ssn)); err != nil {
		t.Errorf("delete after unreference: %v", err)
	}
	// The reference accepted above must not outlive its referenced row: a
	// re-insert probes again and is rejected.
	err = r.InsertCtx(context.Background(), "TEACH", tup(cnr, ssn))
	if !errors.As(err, &cv) || cv.Kind != engine.ForeignKeyViolation {
		t.Errorf("insert after referenced delete = %v", err)
	}
}

// TestCrossShardBatch exercises set-wise validation: a batch that inserts a
// referenced row on one shard and its referencing row on another succeeds
// regardless of op placement, and a violating batch leaves no partial
// effects on any shard.
func TestCrossShardBatch(t *testing.T) {
	r := openRouter(t, 4)
	cnr, ssn := keysOnDifferentShards(t, r, "b")
	ops := []engine.BatchOp{
		engine.Ins("COURSE", tup(cnr)),
		engine.Ins("DEPARTMENT", tup("d1")),
		engine.Ins("OFFER", tup(cnr, "d1")),
		engine.Ins("PERSON", tup(ssn)),
		engine.Ins("FACULTY", tup(ssn)),
		engine.Ins("TEACH", tup(cnr, ssn)),
	}
	if err := r.ApplyBatchCtx(context.Background(), ops); err != nil {
		t.Fatalf("cross-shard batch: %v", err)
	}
	if _, ok, _ := r.GetByKeyCtx(context.Background(), "TEACH", tup(cnr)); !ok {
		t.Fatal("TEACH row missing after batch")
	}
	// All-or-nothing: one dangling op anywhere drops every shard's share.
	bad := []engine.BatchOp{
		engine.Ins("COURSE", tup(cnr+"-x")),
		engine.Ins("OFFER", tup(cnr+"-x", "no-such-dept")),
	}
	err := r.ApplyBatchCtx(context.Background(), bad)
	var cv *engine.ConstraintViolation
	if !errors.As(err, &cv) || cv.Kind != engine.ForeignKeyViolation {
		t.Fatalf("violating batch = %v", err)
	}
	if _, ok, _ := r.GetByKeyCtx(context.Background(), "COURSE", tup(cnr+"-x")); ok {
		t.Error("partial batch effect survived on another shard")
	}
	// Cross-shard delete batch with in-batch re-ordering freedom: deleting
	// the referencing and referenced rows together succeeds even though the
	// referenced row's shard sees its delete "first".
	unlink := []engine.BatchOp{
		engine.Del("FACULTY", tup(ssn)),
		engine.Del("TEACH", tup(cnr)),
	}
	if err := r.ApplyBatchCtx(context.Background(), unlink); err != nil {
		t.Fatalf("cross-shard unlink batch: %v", err)
	}
	if _, ok, _ := r.GetByKeyCtx(context.Background(), "FACULTY", tup(ssn)); ok {
		t.Error("FACULTY survived unlink batch")
	}
}

// TestCrossShardPartialUnlink: two TEACH rows reference one FACULTY row from a
// sibling shard, and a third on that shard references another. A cross-shard
// batch deleting the FACULTY row, one of its TEACH rows and the unrelated one
// leaves a reference behind and is refused; deleting both of its TEACH rows
// goes through. The sibling's answer is its count of referencing rows minus
// the batch's pending deletes that carry the value — not minus all of them.
func TestCrossShardPartialUnlink(t *testing.T) {
	r := openRouter(t, 4)
	ctx := context.Background()
	ssn, other := "pu-ssn-0", "pu-ssn-1"
	home := r.ShardOf(tup(ssn).EncodeKey())
	sibling := (home + 1) % 4
	var courses []string
	for i := 0; len(courses) < 3; i++ {
		if c := fmt.Sprintf("pu-c-%d", i); r.ShardOf(tup(c).EncodeKey()) == sibling {
			courses = append(courses, c)
		}
	}
	type row struct {
		rel string
		tp  relation.Tuple
	}
	rows := []row{
		{"DEPARTMENT", tup("d1")},
		{"PERSON", tup(ssn)}, {"FACULTY", tup(ssn)},
		{"PERSON", tup(other)}, {"FACULTY", tup(other)},
	}
	for i, c := range courses {
		teacher := ssn
		if i == 2 {
			teacher = other
		}
		rows = append(rows, row{"COURSE", tup(c)}, row{"OFFER", tup(c, "d1")}, row{"TEACH", tup(c, teacher)})
	}
	for _, ins := range rows {
		if err := r.InsertCtx(ctx, ins.rel, ins.tp); err != nil {
			t.Fatalf("insert %s %v: %v", ins.rel, ins.tp, err)
		}
	}
	partial := []engine.BatchOp{
		engine.Del("FACULTY", tup(ssn)),
		engine.Del("TEACH", tup(courses[0])),
		engine.Del("TEACH", tup(courses[2])),
	}
	var cv *engine.ConstraintViolation
	if err := r.ApplyBatchCtx(ctx, partial); !errors.As(err, &cv) || cv.Kind != engine.RestrictViolation {
		t.Fatalf("batch leaving one of two references = %v, want a restrict violation", err)
	}
	for _, k := range []struct{ rel, key string }{{"FACULTY", ssn}, {"TEACH", courses[0]}, {"TEACH", courses[2]}} {
		if _, ok, _ := r.GetByKeyCtx(ctx, k.rel, tup(k.key)); !ok {
			t.Errorf("refused batch removed %s %s", k.rel, k.key)
		}
	}
	full := []engine.BatchOp{
		engine.Del("FACULTY", tup(ssn)),
		engine.Del("TEACH", tup(courses[0])),
		engine.Del("TEACH", tup(courses[1])),
	}
	if err := r.ApplyBatchCtx(ctx, full); err != nil {
		t.Fatalf("batch deleting both references: %v", err)
	}
	if _, ok, _ := r.GetByKeyCtx(ctx, "FACULTY", tup(ssn)); ok {
		t.Error("FACULTY survived the batch that unlinked it")
	}
}

// TestCrossShardUpdateMigration moves a row to a new shard via Update and
// checks both the migration and the engine-parity violation surface.
func TestCrossShardUpdateMigration(t *testing.T) {
	r := openRouter(t, 4)
	c1, c2 := keysOnDifferentShards(t, r, "m")
	for _, ins := range []struct {
		rel string
		tp  relation.Tuple
	}{
		{"COURSE", tup(c1)},
		{"COURSE", tup(c2)},
		{"DEPARTMENT", tup("d1")},
		{"OFFER", tup(c1, "d1")},
	} {
		if err := r.InsertCtx(context.Background(), ins.rel, ins.tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.UpdateCtx(context.Background(), "OFFER", tup(c1), tup(c2, "d1")); err != nil {
		t.Fatalf("cross-shard update: %v", err)
	}
	if _, ok, _ := r.GetByKeyCtx(context.Background(), "OFFER", tup(c1)); ok {
		t.Error("old row survived migration")
	}
	if got, ok, _ := r.GetByKeyCtx(context.Background(), "OFFER", tup(c2)); !ok || !got.Identical(tup(c2, "d1")) {
		t.Error("migrated row missing")
	}
	// The row landed on the new key's owner, physically.
	if _, ok, _ := r.Shard(r.ShardOf(tup(c2).EncodeKey())).GetByKeyCtx(context.Background(), "OFFER", tup(c2)); !ok {
		t.Error("migrated row not on its hash owner")
	}
	// A referenced-side restrict across the migration reports Op "update",
	// as the one-shard engine would.
	if err := r.InsertCtx(context.Background(), "PERSON", tup("p1")); err != nil {
		t.Fatal(err)
	}
	if err := r.InsertCtx(context.Background(), "FACULTY", tup("p1")); err != nil {
		t.Fatal(err)
	}
	if err := r.InsertCtx(context.Background(), "TEACH", tup(c2, "p1")); err != nil {
		t.Fatal(err)
	}
	err := r.UpdateCtx(context.Background(), "OFFER", tup(c2), tup(c1, "d1"))
	var cv *engine.ConstraintViolation
	if !errors.As(err, &cv) || cv.Kind != engine.RestrictViolation || cv.Op != "update" {
		t.Errorf("restricted migration = %v", err)
	}
	// Migrating a missing row keeps the engine's error.
	if err := r.UpdateCtx(context.Background(), "OFFER", tup("absent"), tup(c1, "d1")); !errors.Is(err, engine.ErrNoSuchTuple) {
		t.Errorf("update missing = %v", err)
	}
}

// TestNonKeyINDProbe covers value-based (non-key) inclusion dependencies,
// which probe every sibling's referenced-side index instead of hashing to
// an owner.
func TestNonKeyINDProbe(t *testing.T) {
	s := schema.New()
	s.AddScheme(schema.NewScheme("R",
		[]schema.Attribute{{Name: "R.A", Domain: "d"}, {Name: "R.B", Domain: "e"}}, []string{"R.A"}))
	s.AddScheme(schema.NewScheme("S",
		[]schema.Attribute{{Name: "S.X", Domain: "f"}, {Name: "S.Y", Domain: "e"}}, []string{"S.X"}))
	s.INDs = []schema.IND{schema.NewIND("S", []string{"S.Y"}, "R", []string{"R.B"})}
	r, err := Open(s, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.InsertCtx(context.Background(), "R", tup("a1", "b1")); err != nil {
		t.Fatal(err)
	}
	// Find an S key on a different shard than R's row, so the referenced
	// value is definitely remote.
	owner := r.ShardOf(tup("a1").EncodeKey())
	var sKey string
	for i := 0; ; i++ {
		sKey = fmt.Sprintf("x-%d", i)
		if r.ShardOf(tup(sKey).EncodeKey()) != owner {
			break
		}
	}
	if err := r.InsertCtx(context.Background(), "S", tup(sKey, "b1")); err != nil {
		t.Fatalf("non-key cross-shard reference: %v", err)
	}
	var cv *engine.ConstraintViolation
	if err := r.InsertCtx(context.Background(), "S", tup(sKey+"-2", "no-such-b")); !errors.As(err, &cv) || cv.Kind != engine.ForeignKeyViolation {
		t.Errorf("dangling non-key reference = %v", err)
	}
	// Referenced-side restrict: R's row is referenced by a (possibly
	// remote) S row.
	if err := r.DeleteCtx(context.Background(), "R", tup("a1")); !errors.As(err, &cv) || cv.Kind != engine.RestrictViolation {
		t.Errorf("non-key restrict = %v", err)
	}
}

func TestRouterTxn(t *testing.T) {
	r := openRouter(t, 3)
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := r.InsertCtx(context.Background(), "COURSE", tup(fmt.Sprintf("t-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := r.View().Count("COURSE"); n != 0 {
		t.Errorf("rows after rollback = %d", n)
	}
	if err := r.Rollback(); err == nil {
		t.Error("rollback without txn should fail")
	}
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := r.InsertCtx(context.Background(), "COURSE", tup("kept")); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := r.View().Count("COURSE"); n != 1 {
		t.Errorf("rows after commit = %d", n)
	}
}

func TestRouterStatsAggregation(t *testing.T) {
	r := openRouter(t, 4)
	for i := 0; i < 32; i++ {
		if err := r.InsertCtx(context.Background(), "COURSE", tup(fmt.Sprintf("s-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := r.StatsTotals()
	if st.Inserts != 32 {
		t.Errorf("aggregated inserts = %d, want 32", st.Inserts)
	}
	var maxLSN uint64
	perShard := 0
	for i := 0; i < r.Shards(); i++ {
		sst := r.Shard(i).StatsTotals()
		perShard += sst.Inserts
		if sst.VersionLSN > maxLSN {
			maxLSN = sst.VersionLSN
		}
	}
	if perShard != 32 {
		t.Errorf("per-shard inserts sum = %d", perShard)
	}
	if st.VersionLSN != maxLSN {
		t.Errorf("aggregated LSN = %d, want max %d", st.VersionLSN, maxLSN)
	}
}

// TestShardDurableReopen checks the property the golden hash test protects:
// a durable sharded database reopened with the same shard count finds every
// row on the shard that owns it.
func TestShardDurableReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() *Router {
		r, err := Open(figures.Fig3(), Config{Shards: 3, WALDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := open()
	var keys []string
	for i := 0; i < 24; i++ {
		k := fmt.Sprintf("dur-%d", i)
		keys = append(keys, k)
		if err := r.InsertCtx(context.Background(), "COURSE", tup(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.InsertCtx(context.Background(), "PERSON", tup("pp")); err != nil {
		t.Fatal(err)
	}
	if err := r.InsertCtx(context.Background(), "FACULTY", tup("pp")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := open()
	defer r2.Close()
	if !r2.Recovered().Recovered {
		t.Fatal("reopen did not recover")
	}
	for _, k := range keys {
		got, ok, _ := r2.GetByKeyCtx(context.Background(), "COURSE", tup(k))
		if !ok || !got.Identical(tup(k)) {
			t.Fatalf("row %s lost across reopen", k)
		}
		owner := r2.ShardOf(tup(k).EncodeKey())
		if _, ok, _ := r2.Shard(owner).GetByKeyCtx(context.Background(), "COURSE", tup(k)); !ok {
			t.Fatalf("row %s not on its owner after reopen", k)
		}
	}
	// Cross-shard IND re-validation ran and constraints still hold.
	var cv *engine.ConstraintViolation
	if err := r2.DeleteCtx(context.Background(), "PERSON", tup("pp")); !errors.As(err, &cv) || cv.Kind != engine.RestrictViolation {
		t.Errorf("restrict after recovery = %v", err)
	}
}

func TestRouterLoadAndSnapshot(t *testing.T) {
	r := openRouter(t, 3)
	st := figures.Fig3State()
	if err := r.LoadCtx(context.Background(), st); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	for name, rel := range st.Relations {
		got := snap.Relation(name)
		if got == nil || got.Len() != rel.Len() {
			t.Errorf("relation %s: snapshot %v rows, want %d", name, got, rel.Len())
		}
	}
}

// TestCrossShardINDStress hammers the insert-FK-probe vs referenced-delete
// race across shards: under -race and the router's lock rule (FACULTY is
// referenced, so its deletes hold gmu exclusively), every TEACH insert must
// observe its FACULTY row atomically with respect to the concurrent
// deletes. Run via make shard-test.
func TestCrossShardINDStress(t *testing.T) {
	r := openRouter(t, 4)
	const ssns = 8
	for i := 0; i < ssns; i++ {
		ssn := fmt.Sprintf("ssn-%d", i)
		if err := r.InsertCtx(context.Background(), "PERSON", tup(ssn)); err != nil {
			t.Fatal(err)
		}
		if err := r.InsertCtx(context.Background(), "FACULTY", tup(ssn)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		cnr := fmt.Sprintf("cn-%d", i)
		if err := r.InsertCtx(context.Background(), "COURSE", tup(cnr)); err != nil {
			t.Fatal(err)
		}
		if err := r.InsertCtx(context.Background(), "DEPARTMENT", tup(fmt.Sprintf("dp-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := r.InsertCtx(context.Background(), "OFFER", tup(cnr, fmt.Sprintf("dp-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 3)
	// Writer 1: TEACH inserts referencing rotating FACULTY rows.
	go func() {
		for i := 0; i < 64; i++ {
			cnr := fmt.Sprintf("cn-%d", i)
			ssn := fmt.Sprintf("ssn-%d", i%ssns)
			err := r.InsertCtx(context.Background(), "TEACH", tup(cnr, ssn))
			var cv *engine.ConstraintViolation
			if err != nil && !errors.As(err, &cv) {
				done <- fmt.Errorf("teach insert %d: %v", i, err)
				return
			}
			if err == nil {
				if derr := r.DeleteCtx(context.Background(), "TEACH", tup(cnr)); derr != nil {
					done <- fmt.Errorf("teach delete %d: %v", i, derr)
					return
				}
			}
		}
		done <- nil
	}()
	// Writer 2: delete/re-insert FACULTY rows (restrict violations are
	// expected outcomes, torn states are not).
	go func() {
		for i := 0; i < 96; i++ {
			ssn := fmt.Sprintf("ssn-%d", i%ssns)
			err := r.DeleteCtx(context.Background(), "FACULTY", tup(ssn))
			var cv *engine.ConstraintViolation
			if err != nil && !errors.As(err, &cv) {
				done <- fmt.Errorf("faculty delete: %v", err)
				return
			}
			if err == nil {
				if ierr := r.InsertCtx(context.Background(), "FACULTY", tup(ssn)); ierr != nil {
					done <- fmt.Errorf("faculty reinsert: %v", ierr)
					return
				}
			}
		}
		done <- nil
	}()
	// Writer 3: shard-local traffic on a relation no dependency references,
	// under gmu shared.
	go func() {
		for i := 0; i < 128; i++ {
			k := fmt.Sprintf("free-%d", i)
			if err := r.InsertCtx(context.Background(), "COURSE", tup(k)); err != nil {
				done <- fmt.Errorf("course insert: %v", err)
				return
			}
			if err := r.DeleteCtx(context.Background(), "COURSE", tup(k)); err != nil {
				done <- fmt.Errorf("course delete: %v", err)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Invariant sweep: every surviving TEACH row's FACULTY exists.
	v := r.View()
	err := v.Scan("TEACH", nil, func(tp relation.Tuple) {
		ssn := tp[1]
		if _, ok := v.GetByKey("FACULTY", relation.Tuple{ssn}); !ok {
			t.Errorf("dangling TEACH row %v", tp)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func openDurable(t *testing.T, dir string, fp *wal.Failpoint) *Router {
	t.Helper()
	r, err := Open(figures.Fig3(), Config{Shards: 4, WALDir: dir, WALOpts: wal.Options{Failpoint: fp}})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// absentEverywhere fails the test if any shard holds a row under key.
func absentEverywhere(t *testing.T, r *Router, rel string, key relation.Tuple, when string) {
	t.Helper()
	for i := 0; i < r.Shards(); i++ {
		if _, ok, _ := r.Shard(i).GetByKeyCtx(context.Background(), rel, key); ok {
			t.Errorf("%s: %s row %v survived on shard %d", when, rel, key, i)
		}
	}
}

// TestCrossShardBatchCompensation makes the second shard's commit of a
// cross-shard batch fail on its log after the first shard committed: the
// first shard's share must be undone, live and across a reopen.
func TestCrossShardBatchCompensation(t *testing.T) {
	dir := t.TempDir()
	// Log writes are counted from Open: the batch's first commit is write 1,
	// its second is write 2.
	r := openDurable(t, dir, &wal.Failpoint{FailWrite: 2})
	cnr, ssn := keysOnDifferentShards(t, r, "cp")
	before := r.ProbeStats()
	batch := []engine.BatchOp{
		engine.Ins("COURSE", tup(cnr)),
		engine.Ins("PERSON", tup(ssn)),
	}
	if err := r.ApplyBatchCtx(context.Background(), batch); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("batch with a failing second commit = %v", err)
	}
	if after := r.ProbeStats(); after.Compensations == before.Compensations {
		t.Error("no compensation ran")
	}
	absentEverywhere(t, r, "COURSE", tup(cnr), "live")
	absentEverywhere(t, r, "PERSON", tup(ssn), "live")
	r.Close()
	r = openDurable(t, dir, nil)
	defer r.Close()
	absentEverywhere(t, r, "COURSE", tup(cnr), "reopened")
	absentEverywhere(t, r, "PERSON", tup(ssn), "reopened")
}

// TestCrossShardUpdateCompensation is the key-moving update's counterpart:
// the insert on the new key's shard commits, the delete on the old key's
// shard fails on its log, and the moved row must not survive the failure.
func TestCrossShardUpdateCompensation(t *testing.T) {
	dir := t.TempDir()
	r := openDurable(t, dir, nil)
	c1, c2 := keysOnDifferentShards(t, r, "cu")
	for _, ins := range []struct {
		rel string
		tp  relation.Tuple
	}{
		{"COURSE", tup(c1)},
		{"COURSE", tup(c2)},
		{"DEPARTMENT", tup("d1")},
		{"OFFER", tup(c1, "d1")},
	} {
		if err := r.InsertCtx(context.Background(), ins.rel, ins.tp); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	r = openDurable(t, dir, &wal.Failpoint{FailWrite: 2})
	before := r.ProbeStats()
	if err := r.UpdateCtx(context.Background(), "OFFER", tup(c1), tup(c2, "d1")); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("update with a failing delete = %v", err)
	}
	if after := r.ProbeStats(); after.Compensations == before.Compensations {
		t.Error("no compensation ran")
	}
	check := func(when string) {
		absentEverywhere(t, r, "OFFER", tup(c2), when)
		if got, ok, _ := r.GetByKeyCtx(context.Background(), "OFFER", tup(c1)); !ok || !got.Identical(tup(c1, "d1")) {
			t.Errorf("%s: the row the failed update would have moved is gone", when)
		}
	}
	check("live")
	r.Close()
	r = openDurable(t, dir, nil)
	defer r.Close()
	check("reopened")
}

// TestCrossShardBatchValidatesOnce pins the cost of the all-or-nothing
// protocol: a cross-shard batch takes each involved shard's writer mutex
// exactly once, staging every sub-batch before committing any.
func TestCrossShardBatchValidatesOnce(t *testing.T) {
	reg := obs.NewRegistry()
	r, err := Open(figures.Fig3(), Config{Shards: 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	locks := func() (n float64) {
		for _, p := range reg.Snapshot() {
			if p.Name == "engine.lock_acquisitions" {
				n += p.Value
			}
		}
		return n
	}
	ops := []engine.BatchOp{engine.Ins("DEPARTMENT", tup("d1"))}
	involved := map[int]bool{r.ShardOf(tup("d1").EncodeKey()): true}
	for i := 0; len(involved) < 3; i++ {
		cnr := fmt.Sprintf("vo-%d", i)
		ops = append(ops, engine.Ins("COURSE", tup(cnr)), engine.Ins("OFFER", tup(cnr, "d1")))
		involved[r.ShardOf(tup(cnr).EncodeKey())] = true
	}
	before := locks()
	if err := r.ApplyBatchCtx(context.Background(), ops); err != nil {
		t.Fatal(err)
	}
	if got := locks() - before; got != float64(len(involved)) {
		t.Errorf("a batch over %d shards took %.0f shard writer locks, want %d", len(involved), got, len(involved))
	}
}

// TestAllocBudget pins what one co-located insert through a 4-shard router
// allocates, as a total over 64 fixed OFFER rows whose course and department
// live on the row's own shard (so both inclusion dependencies are checked
// locally, and the count must show zero remote probes): routing, the router
// lock and the owning engine's insert.
func TestAllocBudget(t *testing.T) {
	const ops, runs = 64, 4
	r := openRouter(t, 4)
	if err := r.InsertCtx(context.Background(), "DEPARTMENT", tup("d1")); err != nil {
		t.Fatal(err)
	}
	home := r.ShardOf(tup("d1").EncodeKey())
	var rows []relation.Tuple
	for i := 0; len(rows) < (runs+1)*ops; i++ {
		cnr := fmt.Sprintf("c-%04d", i)
		if r.ShardOf(tup(cnr).EncodeKey()) != home {
			continue
		}
		if err := r.InsertCtx(context.Background(), "COURSE", tup(cnr)); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, tup(cnr, "d1"))
	}
	ctx, next, before := context.Background(), 0, r.ProbeStats()
	inserts := testing.AllocsPerRun(runs, func() {
		for _, row := range rows[next : next+ops] {
			if err := r.InsertCtx(ctx, "OFFER", row); err != nil {
				t.Fatal(err)
			}
		}
		next += ops
	})
	if after := r.ProbeStats(); after.RemoteProbes != before.RemoteProbes {
		t.Fatalf("co-located inserts issued %d remote probes", after.RemoteProbes-before.RemoteProbes)
	}
	const budget = 541 // 8.5 per insert (15.5 with per-op staging in the engine, 17.5 with a list of rows per indexed value)
	if inserts > budget {
		t.Errorf("%d co-located inserts allocate %.0f, budget %d", ops, inserts, budget)
	}
}
