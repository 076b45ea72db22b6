package relmerge_test

import (
	"context"
	"testing"

	"repro/pkg/relmerge"
)

// The facade opens a durable engine, checkpoints it, and recovers the full
// committed state after a simulated crash (the first engine is dropped
// without Close) — all without importing internal/.
func TestFacadeDurableEngine(t *testing.T) {
	dir := t.TempDir()
	e, err := relmerge.ReplayCtx(context.Background(), relmerge.Fig3(), relmerge.Fig3State(),
		relmerge.WithDurability(dir, relmerge.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	if !e.Durable() {
		t.Fatal("engine opened with WithDurability is not durable")
	}
	if err := e.InsertCtx(context.Background(), "COURSE", relmerge.Tuple{relmerge.NewString("c9")}); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := e.InsertCtx(context.Background(), "COURSE", relmerge.Tuple{relmerge.NewString("c10")}); err != nil {
		t.Fatal(err)
	}
	want := e.Snapshot()
	// Crash: drop the engine without Close. The log must carry everything.

	re, err := relmerge.OpenEngine(relmerge.Fig3(), relmerge.WithDurability(dir, relmerge.SyncAlways))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	info := re.Recovered()
	if !info.Recovered || !info.SnapshotLoaded {
		t.Fatalf("RecoveryInfo = %+v, want a recovery from snapshot + log", info)
	}
	if !re.Snapshot().Equal(want) {
		t.Fatal("recovered state differs from the pre-crash committed state")
	}
}

// ParseSyncPolicy round-trips every policy name through the facade.
func TestFacadeParseSyncPolicy(t *testing.T) {
	for _, p := range []relmerge.SyncPolicy{relmerge.SyncNever, relmerge.SyncInterval, relmerge.SyncAlways} {
		got, err := relmerge.ParseSyncPolicy(p.String())
		if err != nil {
			t.Fatalf("ParseSyncPolicy(%q): %v", p, err)
		}
		if got != p {
			t.Errorf("ParseSyncPolicy(%q) = %v", p, got)
		}
	}
	if _, err := relmerge.ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted an unknown policy")
	}
}
