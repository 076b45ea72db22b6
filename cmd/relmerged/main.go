// Command relmerged serves a relmerge engine over the length-prefixed wire
// protocol (see internal/server) — binary v2 by default, negotiated down to
// JSON v1 per connection: inserts, deletes, updates, key fetches, batches,
// transactions, stats, and checkpoints, with per-request deadlines,
// admission control, and server-side write coalescing aligned with the
// write-ahead log's group commit.
//
// Usage:
//
//	relmerged -fig3 -addr :7421                          # serve figure 3
//	relmerged -schema schema.sdl -data data.sdl          # serve a loaded state
//	relmerged -fig3 -merged                              # apply the Prop 5.2 plan, serve the merged schema
//	relmerged -fig3 -durable ./wal -fsync always         # durable: recovers on restart
//	relmerged -fig3 -advise auto                         # adaptive: merge hot only-NNA clusters live
//	relmerged -fig3 -shards 4                            # hash-partition across 4 engine shards
//	relmerged -fig3 -durable ./rep -replica-of :7421     # read-only follower of the primary at :7421
//
// SIGINT/SIGTERM drain gracefully: stop accepting, finish in-flight
// requests, checkpoint a durable engine, close the WAL. A follower promotes
// on SIGUSR1: it stops shipping and starts accepting writes over exactly the
// acked prefix its log holds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"context"

	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/pkg/relmerge"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7421", "listen address")
		schemaPath  = flag.String("schema", "", "path to an SDL schema file (- for stdin)")
		useFig3     = flag.Bool("fig3", false, "use the paper's figure 3 schema as input")
		merged      = flag.Bool("merged", false, "apply the Prop. 5.2 merge plan and serve the merged schema")
		dataPath    = flag.String("data", "", "optional data file (insert statements) loaded at startup; with -merged the state is mapped through the η mappings first")
		durableDir  = flag.String("durable", "", "directory for the engine's write-ahead log; a reopened directory recovers before serving")
		replicaOf   = flag.String("replica-of", "", "primary relmerged address to ship the WAL from; serves read-only until promoted by SIGUSR1 (requires -durable, same schema flags as the primary)")
		shards      = flag.Int("shards", 1, "hash-partition the engine across N shards behind a cross-shard router (1 = single engine; with -durable each shard logs under shard-<i>/)")
		fsyncMode   = flag.String("fsync", "interval", "fsync policy for -durable: always, interval, or never")
		workers     = flag.Int("workers", 0, "request worker pool size (0 = GOMAXPROCS, at least 4)")
		queueDepth  = flag.Int("queue", 0, "admission queue depth (0 = default 64); a full queue rejects with code overloaded")
		coalesce    = flag.Int("coalesce", 0, "max queued writes folded into one engine batch and WAL record (0 = default 16, 1 disables)")
		adviseMode  = flag.String("advise", "off", "adaptive-merge advisor: off, suggest (log recommendations), or auto (additionally apply only-NNA merges to the live design); not valid with -replica-of")
		adviseEvery = flag.Duration("advise-interval", time.Second, "decision cadence of the -advise loop")
		drainWait   = flag.Duration("drain-timeout", 10*time.Second, "how long a signal-triggered drain waits for in-flight requests")
		quiet       = flag.Bool("quiet", false, "suppress lifecycle log lines")
	)
	flag.Parse()

	fsyncPolicy, err := relmerge.ParseSyncPolicy(*fsyncMode)
	if err != nil {
		fatal(fmt.Errorf("relmerged: %w", err))
	}

	advisor, err := relmerge.ParseAdvisorMode(*adviseMode)
	if err != nil {
		fatal(fmt.Errorf("relmerged: %w", err))
	}
	if advisor != relmerge.AdvisorOff && *replicaOf != "" {
		fatal(fmt.Errorf("relmerged: -advise %s cannot run on a follower: the primary's shipped log dictates the design; run the advisor on the primary", advisor))
	}

	s, err := loadSchema(*schemaPath, *useFig3)
	if err != nil {
		fatal(err)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *quiet {
		logf = func(string, ...any) {}
	}

	// With -merged, rewrite the schema through the Prop. 5.2 planner; the η
	// mappings of the per-cluster merge records map any loaded state across.
	orig := s
	var merges []*relmerge.Merged
	if *merged {
		clusters := relmerge.PlanCtx(context.Background(), s)
		if len(clusters) == 0 {
			fatal(fmt.Errorf("relmerged: -merged: no merge set satisfies the Prop. 5.2 conditions"))
		}
		s, merges, err = relmerge.ApplyCtx(context.Background(), s, clusters)
		if err != nil {
			fatal(err)
		}
		for _, m := range merges {
			logf("relmerged: merged %s <- {%s}", m.Name, strings.Join(m.MemberNames(), ", "))
		}
	}

	var db server.Backend
	var follower *repl.Follower
	if *replicaOf != "" {
		// Follower: the local durable engine replays the primary's shipped
		// WAL; its state comes from the stream, never from -data.
		switch {
		case *durableDir == "":
			fatal(fmt.Errorf("relmerged: -replica-of requires -durable (the local log is the replica state)"))
		case *shards > 1:
			fatal(fmt.Errorf("relmerged: -replica-of cannot be combined with -shards"))
		case *dataPath != "":
			fatal(fmt.Errorf("relmerged: -replica-of cannot load -data (state ships from the primary)"))
		}
		eng, err := buildEngine(s, orig, merges, "", []relmerge.EngineOption{
			relmerge.WithDurability(*durableDir, fsyncPolicy), relmerge.AsReplica()})
		if err != nil {
			fatal(err)
		}
		rec := eng.Recovered()
		logf("relmerged: wal %s (fsync %s): recovered=%v replayed=%d", *durableDir, *fsyncMode, rec.Recovered, rec.ReplayedOps)
		follower, err = repl.Open(*replicaOf, eng, repl.Options{})
		if err != nil {
			eng.Close()
			fatal(err)
		}
		info := follower.Info()
		logf("relmerged: following %s (applied LSN %d, primary horizon %d); read-only until SIGUSR1", *replicaOf, info.AppliedLSN, info.CommitLSN)
		db = follower.Backend()
	} else if *shards > 1 {
		// Sharded: N independent engines behind a hash-partitioning router
		// that checks inclusion dependencies across shards. Durability is per
		// shard (shard-<i>/ subdirectories), so WithDurability stays out of
		// the engine options here — relmerge.Open wires the per-shard WALs.
		router, err := buildRouter(orig, merges, *dataPath, relmerge.Config{
			Backend:    relmerge.Sharded,
			Schema:     s,
			Shards:     *shards,
			DurableDir: *durableDir,
			Sync:       fsyncPolicy,
		})
		if err != nil {
			fatal(err)
		}
		if router.Durable() {
			rec := router.Recovered()
			logf("relmerged: wal %s (fsync %s, %d shards): recovered=%v replayed=%d",
				*durableDir, *fsyncMode, *shards, rec.Recovered, rec.ReplayedOps)
		}
		logf("relmerged: routing across %d engine shards", *shards)
		db = router
	} else {
		var engOpts []relmerge.EngineOption
		if *durableDir != "" {
			engOpts = append(engOpts, relmerge.WithDurability(*durableDir, fsyncPolicy))
		}
		eng, err := buildEngine(s, orig, merges, *dataPath, engOpts)
		if err != nil {
			fatal(err)
		}
		if eng.Durable() {
			rec := eng.Recovered()
			logf("relmerged: wal %s (fsync %s): recovered=%v replayed=%d discarded=%d snapshot=%v",
				*durableDir, *fsyncMode, rec.Recovered, rec.ReplayedOps, rec.DiscardedOps, rec.SnapshotLoaded)
		}
		db = eng
	}

	// The advisor loop watches the serving backend's own co-access
	// measurements and — in auto mode — migrates it live; the schema lock
	// serializes migrations against the request workers.
	if advisor != relmerge.AdvisorOff {
		var advSess relmerge.Session
		if router, ok := db.(*shard.Router); ok {
			advSess = relmerge.NewShardedSession(router)
		} else {
			advSess = relmerge.NewSession(db.(*relmerge.Engine))
		}
		seen := map[string]bool{} // one log line per distinct recommendation
		stopAdvise, err := relmerge.StartAdvisor(advSess, relmerge.AdvisorConfig{
			Mode:     advisor,
			Interval: *adviseEvery,
			OnSuggestion: func(rec relmerge.Recommendation) {
				if seen[rec.MergedName] {
					return
				}
				seen[rec.MergedName] = true
				logf("relmerged: advisor: merge {%s} -> %s (co-access %d, net benefit %.1f, auto-applicable %v)",
					strings.Join(rec.Cluster, ","), rec.MergedName, rec.CoAccessHits, rec.NetBenefit, rec.AutoApplicable)
			},
			OnApplied: func(rec relmerge.Recommendation, err error) {
				if err != nil {
					logf("relmerged: advisor: apply %s: %v", rec.MergedName, err)
					return
				}
				logf("relmerged: advisor: applied merge %s to the live design", rec.MergedName)
			},
		})
		if err != nil {
			fatal(fmt.Errorf("relmerged: %w", err))
		}
		defer stopAdvise()
		logf("relmerged: advisor %s (every %s)", advisor, *adviseEvery)
	}

	srv := server.New(db, server.Config{
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		CoalesceMax: *coalesce,
		Logf:        logf,
	})

	if follower != nil {
		promote := make(chan os.Signal, 1)
		signal.Notify(promote, syscall.SIGUSR1)
		go func() {
			for range promote {
				if err := follower.Promote(); err != nil {
					logf("relmerged: promote: %v", err)
					continue
				}
				logf("relmerged: promoted at LSN %d: accepting writes", follower.DB().DurableLSN())
			}
		}()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	shutdownDone := make(chan error, 1)
	go func() {
		sig := <-sigs
		logf("relmerged: %s: draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	if err := srv.ListenAndServe(*addr); err != nil {
		fatal(fmt.Errorf("relmerged: %w", err))
	}
	// Serve returns nil only after Shutdown closed the listener; the drain —
	// in-flight responses, checkpoint, WAL close — is still running on the
	// signal goroutine. Exiting now would turn the graceful path into a
	// crash, so wait for it.
	if err := <-shutdownDone; err != nil {
		fatal(fmt.Errorf("relmerged: shutdown: %w", err))
	}
}

// buildEngine opens the serving engine and loads -data into it (loadData).
func buildEngine(s, orig *relmerge.Schema, merges []*relmerge.Merged, dataPath string, opts []relmerge.EngineOption) (*relmerge.Engine, error) {
	eng, err := relmerge.OpenEngine(s, opts...)
	if err != nil {
		return nil, err
	}
	if err := loadData(orig, merges, dataPath, eng.Durable() && eng.Recovered().Recovered, eng.LoadCtx); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// buildRouter opens the sharded serving backend through relmerge.Open and
// loads -data into it (loadData).
func buildRouter(orig *relmerge.Schema, merges []*relmerge.Merged, dataPath string, cfg relmerge.Config) (*shard.Router, error) {
	sess, err := relmerge.Open(cfg)
	if err != nil {
		return nil, err
	}
	router := sess.(*relmerge.ShardedSession).Router()
	if err := loadData(orig, merges, dataPath, router.Durable() && router.Recovered().Recovered, router.LoadCtx); err != nil {
		router.Close()
		return nil, err
	}
	return router, nil
}

// loadData loads the -data file, written against the pre-merge schema, after
// mapping it through each merge record's η in plan order. A recovered
// directory already holds its state, so then the file is skipped.
func loadData(orig *relmerge.Schema, merges []*relmerge.Merged, dataPath string, recovered bool, load func(context.Context, *relmerge.DB) error) error {
	if dataPath == "" || recovered {
		return nil
	}
	data, err := os.ReadFile(dataPath)
	if err != nil {
		return err
	}
	st, err := relmerge.ParseState(orig, string(data))
	if err != nil {
		return err
	}
	for _, m := range merges {
		st = m.MapState(st)
	}
	return load(context.Background(), st)
}

func loadSchema(path string, fig3 bool) (*relmerge.Schema, error) {
	if fig3 {
		return relmerge.Fig3(), nil
	}
	if path == "" {
		return nil, fmt.Errorf("relmerged: need -schema FILE or -fig3")
	}
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return relmerge.ParseSchema(string(data))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
