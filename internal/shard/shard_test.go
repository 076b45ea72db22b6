package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/schema"
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
}

// TestProbeCacheInvalidation would pass with a correct cache OR no cache;
// it fails with a cache that is not invalidated: after the referenced row
// is deleted, a re-insert of the referencing row must re-probe and reject.
func TestProbeCacheInvalidation(t *testing.T) {
	r := openRouter(t, 4)
	cnr, ssn := keysOnDifferentShards(t, r, "ci")
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
			t.Fatal(err)
		}
	}
	// Seed the cache with the cross-shard positive.
	if err := r.InsertCtx(context.Background(), "TEACH", tup(cnr, ssn)); err != nil {
		t.Fatal(err)
	}
	before := r.ProbeStats()
	if err := r.DeleteCtx(context.Background(), "TEACH", tup(cnr)); err != nil {
		t.Fatal(err)
	}
	// Re-insert hits the cache (no new remote probe for FACULTY)...
	if err := r.InsertCtx(context.Background(), "TEACH", tup(cnr, ssn)); err != nil {
		t.Fatal(err)
	}
	after := r.ProbeStats()
	if after.CacheHits == before.CacheHits {
		t.Error("expected re-insert to hit the probe cache")
	}
	// ...but once the referenced row is gone, the cached positive must not
	// survive it.
	if err := r.DeleteCtx(context.Background(), "TEACH", tup(cnr)); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteCtx(context.Background(), "FACULTY", tup(ssn)); err != nil {
		t.Fatal(err)
	}
	err := r.InsertCtx(context.Background(), "TEACH", tup(cnr, ssn))
	var cv *engine.ConstraintViolation
	if !errors.As(err, &cv) || cv.Kind != engine.ForeignKeyViolation {
		t.Errorf("insert after referenced delete = %v (stale probe cache?)", err)
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
// race across shards: under -race and the edge locks, every TEACH insert
// must observe its FACULTY row atomically with respect to the concurrent
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
	// Writer 3: shard-local traffic on an IND-free relation, no router
	// edges involved.
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

// TestCrossShardBatchContext ensures an expired context mid-batch triggers
// compensation rather than a torn cross-shard state.
func TestCrossShardBatchCompensation(t *testing.T) {
	r := openRouter(t, 4)
	cnr, ssn := keysOnDifferentShards(t, r, "cp")
	setup := []engine.BatchOp{
		engine.Ins("COURSE", tup(cnr)),
		engine.Ins("DEPARTMENT", tup("d1")),
		engine.Ins("OFFER", tup(cnr, "d1")),
		engine.Ins("PERSON", tup(ssn)),
		engine.Ins("FACULTY", tup(ssn)),
	}
	if err := r.ApplyBatchCtx(context.Background(), setup); err != nil {
		t.Fatal(err)
	}
	// A cancelled context fails the first shard's apply; nothing must
	// survive (prevalidation passes — the ctx is checked at apply time).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batch := []engine.BatchOp{
		engine.Ins("COURSE", tup(cnr+"-n")),
		engine.Ins("PERSON", tup(ssn+"-n")),
	}
	if err := r.ApplyBatchCtx(ctx, batch); err == nil {
		t.Fatal("cancelled cross-shard batch succeeded")
	}
	if _, ok, _ := r.GetByKeyCtx(context.Background(), "COURSE", tup(cnr+"-n")); ok {
		t.Error("torn batch: COURSE row survived")
	}
	if _, ok, _ := r.GetByKeyCtx(context.Background(), "PERSON", tup(ssn+"-n")); ok {
		t.Error("torn batch: PERSON row survived")
	}
}

// TestAllocBudget pins what one co-located insert through a 4-shard router
// allocates, as a total over 64 fixed OFFER rows whose course and department
// live on the row's own shard (so both inclusion dependencies are checked
// locally, and the count must show zero remote probes): routing, edge locks
// and the owning engine's insert.
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
	const budget = 1373 // 21.5 per insert
	if inserts > budget {
		t.Errorf("%d co-located inserts allocate %.0f, budget %d", ops, inserts, budget)
	}
}
