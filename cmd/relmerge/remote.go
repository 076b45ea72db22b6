package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/state"
	"repro/pkg/relmerge"
)

// runRemoteLoad replays a database state into a running relmerged server:
// dial, replay in inclusion-dependency order (one atomic InsertBatchCtx per
// relation), then print the server's engine counters and the client-side
// wire counters. It is
// the CLI counterpart of the in-process metrics replay — same state
// selection (-data, -fig3, or a seeded generated state), different engine.
func runRemoteLoad(w io.Writer, addr string, s *schema.Schema, st *state.DB) error {
	reg := obs.NewRegistry()
	sess, err := relmerge.Open(relmerge.Config{
		Backend:  relmerge.Remote,
		Addr:     addr,
		Registry: reg,
	})
	if err != nil {
		return fmt.Errorf("relmerge: -remote %s: %w", addr, err)
	}
	defer sess.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	start := time.Now()
	if err := relmerge.ReplayState(ctx, sess, s, st); err != nil {
		return err
	}
	elapsed := time.Since(start)

	stats, err := sess.StatsCtx(ctx)
	if err != nil {
		return err
	}

	var tuples int
	for _, rel := range s.Relations {
		if r := st.Relation(rel.Name); r != nil {
			tuples += r.Len()
		}
	}
	fmt.Fprintf(w, "-- remote load: %s\n", addr)
	fmt.Fprintf(w, "loaded %d tuples in %v\n", tuples, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "server stats: inserts=%d declarative_checks=%d tuples_scanned=%d\n",
		stats.Inserts, stats.DeclarativeChecks, stats.TuplesScanned)
	for _, p := range reg.Snapshot() {
		fmt.Fprintf(w, "client wire:  %s = %.0f\n", p.Name, p.Value)
	}
	return nil
}
