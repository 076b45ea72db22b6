package relmerge_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/figures"
	"repro/pkg/relmerge"
)

// ownsDesign reports whether the session's backend may measure and migrate
// its own design: a remote session's is the server's, a follower's — even a
// promoted one's — is the one its primary shipped.
func ownsDesign(sess relmerge.Session) bool {
	switch sess.(type) {
	case *relmerge.RemoteSession, *relmerge.FollowerSession:
		return false
	}
	return true
}

// TestAdviseConformance pins the Advise contract per backend: backends that
// own their design answer (with zero recommendations on the cluster-free
// conformance schema), the others fail with the typed unsupported error.
func TestAdviseConformance(t *testing.T) {
	withBackends(t, func(t *testing.T, sess relmerge.Session) {
		recs, err := relmerge.Advise(sess, relmerge.AdvisorConfig{})
		switch {
		case !ownsDesign(sess):
			if !errors.Is(err, relmerge.ErrUnsupported) {
				t.Fatalf("Advise without an owned design = %v, want ErrUnsupported", err)
			}
			if got := relmerge.Code(err); got != relmerge.CodeUnsupported {
				t.Fatalf("Code = %v, want %v", got, relmerge.CodeUnsupported)
			}
		default:
			if err != nil {
				t.Fatalf("Advise: %v", err)
			}
			if len(recs) != 0 {
				t.Fatalf("conformance schema has no merge clusters, got %+v", recs)
			}
		}
	})
}

// TestApplyRecommendationConformance pins ApplyRecommendation's error
// behavior: unsupported (typed) on remote and follower, a plain validation
// error for a recommendation that never came from Advise on the owning
// backends.
func TestApplyRecommendationConformance(t *testing.T) {
	withBackends(t, func(t *testing.T, sess relmerge.Session) {
		err := sess.ApplyRecommendation(context.Background(), relmerge.Recommendation{})
		if err == nil {
			t.Fatal("empty recommendation must not apply")
		}
		if !ownsDesign(sess) {
			if !errors.Is(err, relmerge.ErrUnsupported) || relmerge.Code(err) != relmerge.CodeUnsupported {
				t.Fatalf("ApplyRecommendation without an owned design = %v (code %v), want ErrUnsupported/CodeUnsupported", err, relmerge.Code(err))
			}
		} else if errors.Is(err, relmerge.ErrUnsupported) {
			t.Fatalf("owning backend must reject the rec itself, not the capability: %v", err)
		}
		// A canceled context short-circuits before any design work.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := sess.ApplyRecommendation(ctx, relmerge.Recommendation{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled ctx = %v", err)
		}
	})
}

// heatFig3 drives join-shaped traffic (dependency-hop fetches along
// TEACH→OFFER / ASSIST→OFFER) so the co-access counters cross any admission
// threshold the tests use.
func heatFig3(t *testing.T, sess relmerge.Session, rounds int) {
	t.Helper()
	switch s := sess.(type) {
	case *relmerge.EmbeddedSession:
		for i := 0; i < rounds; i++ {
			if _, _, err := s.Engine().FetchWithReferences("TEACH", k("c1")); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Engine().FetchWithReferences("TEACH", k("c2")); err != nil {
				t.Fatal(err)
			}
		}
	case *relmerge.ShardedSession:
		r := s.Router()
		for i := 0; i < rounds; i++ {
			for sh := 0; sh < r.Shards(); sh++ {
				r.Shard(sh).FetchWithReferences("TEACH", k("c1"))
				r.Shard(sh).FetchWithReferences("TEACH", k("c2"))
			}
		}
	default:
		t.Fatalf("no heat driver for %T", sess)
	}
}

// TestAdviseApplyEndToEnd is the public-API path of the adaptive loop, on
// both design-owning backends: measure real co-access heat, Advise, apply
// the auto-applicable recommendation, and keep serving on the merged design.
func TestAdviseApplyEndToEnd(t *testing.T) {
	open := map[string]func(t *testing.T) relmerge.Session{
		"embedded": func(t *testing.T) relmerge.Session {
			sess, err := relmerge.Open(relmerge.Config{Schema: figures.Fig3()})
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.(*relmerge.EmbeddedSession).Engine().LoadCtx(context.Background(), figures.Fig3State()); err != nil {
				t.Fatal(err)
			}
			return sess
		},
		"sharded": func(t *testing.T) relmerge.Session {
			sess, err := relmerge.Open(relmerge.Config{Backend: relmerge.Sharded, Schema: figures.Fig3(), Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.(*relmerge.ShardedSession).Router().LoadCtx(context.Background(), figures.Fig3State()); err != nil {
				t.Fatal(err)
			}
			return sess
		},
	}
	for name, openSess := range open {
		t.Run(name, func(t *testing.T) {
			sess := openSess(t)
			t.Cleanup(func() { sess.Close() })
			heatFig3(t, sess, 100)

			recs, err := relmerge.Advise(sess, relmerge.AdvisorConfig{MinCoAccess: 16})
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 || !recs[0].AutoApplicable {
				t.Fatalf("hot only-NNA cluster should lead and be auto-applicable: %+v", recs)
			}
			best := recs[0]
			if best.KeyRelation != "OFFER" || !best.OnlyNNA || best.CoAccessHits < 16 {
				t.Fatalf("best = %+v", best)
			}

			if err := sess.ApplyRecommendation(context.Background(), best); err != nil {
				t.Fatalf("ApplyRecommendation: %v", err)
			}
			if _, found, err := sess.FetchCtx(context.Background(), best.MergedName, k("c1")); err != nil || !found {
				t.Fatalf("merged design does not serve: %v %v", found, err)
			}
			if _, _, err := sess.FetchCtx(context.Background(), "TEACH", k("c1")); !errors.Is(err, relmerge.ErrUnknownRelation) {
				t.Fatalf("pre-merge relation still resolves: %v", err)
			}
			// The recommendation is now stale: the cluster no longer exists on
			// the current design, so re-applying fails cleanly.
			if err := sess.ApplyRecommendation(context.Background(), best); err == nil {
				t.Fatal("stale recommendation must not re-apply")
			}
			// Post-migration counters start cold: a fresh Advise has no
			// admitted recommendation yet.
			recs, err = relmerge.Advise(sess, relmerge.AdvisorConfig{MinCoAccess: 16})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if r.Admitted {
					t.Fatalf("cold post-migration design admitted %+v", r)
				}
			}
		})
	}
}

// TestOpenWithAdvisorAuto opens an embedded session with the background
// advisor in Auto mode and watches it migrate the live design on its own
// once the measured heat crosses the threshold.
func TestOpenWithAdvisorAuto(t *testing.T) {
	applied := make(chan error, 16)
	sess, err := relmerge.Open(relmerge.Config{Schema: figures.Fig3()},
		relmerge.WithAdvisorConfig(relmerge.AdvisorConfig{
			Mode:        relmerge.AdvisorAuto,
			Interval:    time.Millisecond,
			MinCoAccess: 16,
			OnApplied:   func(_ relmerge.Recommendation, err error) { applied <- err },
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	es := sess.(*relmerge.EmbeddedSession)
	if err := es.Engine().LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	heatFig3(t, sess, 100)
	select {
	case err := <-applied:
		if err != nil {
			t.Fatalf("auto-apply failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("advisor never applied the hot merge")
	}
	if _, found, err := sess.FetchCtx(context.Background(), "OFFER+", k("c1")); err != nil || !found {
		t.Fatalf("auto-merged design does not serve: %v %v", found, err)
	}
	// Close stops the loop (and is what would catch a leaked goroutine under
	// -race when the engine shuts down beneath it).
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenWithAdvisorSuggestNeverMigrates pins the Suggest-mode contract:
// recommendations are reported, the design never moves.
func TestOpenWithAdvisorSuggestNeverMigrates(t *testing.T) {
	suggested := make(chan relmerge.Recommendation, 16)
	sess, err := relmerge.Open(relmerge.Config{Schema: figures.Fig3()},
		relmerge.WithAdvisorConfig(relmerge.AdvisorConfig{
			Mode:         relmerge.AdvisorSuggest,
			Interval:     time.Millisecond,
			MinCoAccess:  16,
			OnSuggestion: func(r relmerge.Recommendation) { suggested <- r },
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	es := sess.(*relmerge.EmbeddedSession)
	if err := es.Engine().LoadCtx(context.Background(), figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	heatFig3(t, sess, 100)
	select {
	case rec := <-suggested:
		if !rec.Admitted {
			t.Fatalf("suggested rec not admitted: %+v", rec)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("advisor never suggested the hot merge")
	}
	if _, _, err := sess.FetchCtx(context.Background(), "TEACH", k("c1")); err != nil {
		t.Fatalf("suggest mode must not migrate: %v", err)
	}
}

// TestOpenAdvisorBackendValidation pins the Open-time refusal: a background
// advisor on a backend that cannot own its design is a typed configuration
// error, not a silent no-op.
func TestOpenAdvisorBackendValidation(t *testing.T) {
	for _, backend := range []relmerge.BackendKind{relmerge.Remote, relmerge.Follower} {
		for _, mode := range []relmerge.AdvisorMode{relmerge.AdvisorSuggest, relmerge.AdvisorAuto} {
			_, err := relmerge.Open(relmerge.Config{Backend: backend, Addr: "127.0.0.1:1"},
				relmerge.WithAdvisor(mode, time.Second))
			if !errors.Is(err, relmerge.ErrUnsupported) {
				t.Fatalf("Open(%v, advisor %v) = %v, want ErrUnsupported", backend, mode, err)
			}
			if got := relmerge.Code(err); got != relmerge.CodeUnsupported {
				t.Fatalf("Code = %v, want %v", got, relmerge.CodeUnsupported)
			}
		}
	}
	// Off stays valid everywhere: the explicit zero option is not a request.
	sess, err := relmerge.Open(relmerge.Config{Schema: confSchema()},
		relmerge.WithAdvisor(relmerge.AdvisorOff, 0))
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
}

func TestParseAdvisorMode(t *testing.T) {
	for in, want := range map[string]relmerge.AdvisorMode{
		"off": relmerge.AdvisorOff, "suggest": relmerge.AdvisorSuggest, "auto": relmerge.AdvisorAuto,
	} {
		got, err := relmerge.ParseAdvisorMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseAdvisorMode(%q) = %v, %v", in, got, err)
		}
		if got.String() != in {
			t.Fatalf("String() = %q, want %q", got.String(), in)
		}
	}
	if _, err := relmerge.ParseAdvisorMode("always"); err == nil {
		t.Fatal("bad mode must not parse")
	}
}
