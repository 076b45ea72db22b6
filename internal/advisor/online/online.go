// Package online closes the loop the offline advisor leaves open: instead of
// pricing a workload description someone wrote down, it watches the engine's
// own measurements — the per-IND-edge co-access counters the fetch path
// maintains (engine.CoAccessStats) and the operation-mix window
// (engine.StatsSnapshot) — decides whether a merge would pay for itself, and applies
// the winning merge to the LIVE engine through MigrateSchema.
//
// The decision pipeline is the paper's machinery used as an admission filter:
//
//   - Candidates come from both Prop. 3.1 (maximal key-relation closures,
//     advisor.Clusters) and Prop. 5.2 (clusters whose merge needs only
//     nulls-not-allowed constraints, core.Prop52Clusters).
//   - Each candidate is priced by advisor.PriceCluster under a workload
//     synthesized from the measurements: profile-query frequency = the
//     cluster's observed co-access heat, insert frequency from the stats
//     window, cost model calibrated by CostModelFromStats (unless pinned).
//   - A candidate is ADMITTED when it is hot (co-access ≥ MinCoAccess) and
//     the merge prices net-positive. It is AUTO-APPLICABLE only when it is
//     additionally in the Prop. 5.2 regime (OnlyNNA): a merge that would
//     need trigger maintenance is never applied behind the user's back, only
//     suggested.
//
// Decide is a pure function of (schema, co-access, stats, config), so the
// policy is unit-testable without an engine; Apply and the Run loop bind it
// to a live one.
package online

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/state"
)

// Config tunes the decision policy.
type Config struct {
	// MinCoAccess is the admission heat: a cluster is considered only after
	// its internal IND edges accumulated this many co-accesses in the
	// current design's lifetime. 0 means DefaultMinCoAccess.
	MinCoAccess int64
	// CostModel pins the pricing model; nil calibrates one from the stats
	// window via CostModelFromStats.
	CostModel *advisor.CostModel
}

// DefaultMinCoAccess is the admission heat used when Config.MinCoAccess is
// zero: enough co-accesses to rule out incidental adjacency, small enough
// that a genuinely join-shaped workload crosses it within seconds.
const DefaultMinCoAccess = 64

// Suggestion is one priced candidate with its measured evidence and the
// admission verdicts.
type Suggestion struct {
	Rec advisor.Recommendation
	// CoAccessHits is the summed heat of the IND edges internal to the
	// cluster — the measured "these relations are fetched together" signal.
	CoAccessHits int64
	// Admitted: hot enough and priced net-positive.
	Admitted bool
	// AutoApplicable: admitted AND in the Prop. 5.2 only-NNA regime, so the
	// post-merge design is declaratively maintainable and safe to install
	// without operator review.
	AutoApplicable bool
}

// Decide prices every candidate cluster of s against the measurements and
// returns the suggestions sorted best-first (auto-applicable before
// suggestion-only, then by net benefit). It is pure: same inputs, same
// output, no engine access.
func Decide(s *schema.Schema, co []engine.CoAccessStat, st engine.StatsSnapshot, cfg Config) []Suggestion {
	minHeat := cfg.MinCoAccess
	if minHeat == 0 {
		minHeat = DefaultMinCoAccess
	}
	cm := advisor.DefaultCostModel()
	if cfg.CostModel != nil {
		cm = *cfg.CostModel
	} else {
		cm = advisor.CostModelFromStats(st)
	}

	// Candidates: Prop. 5.2 clusters first (the auto-applicable regime),
	// then the maximal Prop. 3.1 closures, deduplicated by member set.
	seen := map[string]bool{}
	var cands [][]string
	for _, c := range append(core.Prop52Clusters(s), advisor.Clusters(s)...) {
		k := fmt.Sprint(c)
		if !seen[k] {
			seen[k] = true
			cands = append(cands, c)
		}
	}

	heat := edgeHeat(co)
	var out []Suggestion
	for _, cluster := range cands {
		hits := clusterHeat(heat, cluster)
		w := advisor.Workload{
			// The cluster's co-access heat IS its profile-query frequency:
			// every counted co-access was one join-shaped access that a
			// merged design would have served with a single lookup.
			ProfileQueries: map[string]float64{cluster[0]: float64(hits)},
			// The stats window only counts inserts globally; attribute them
			// evenly. This over-charges cold clusters, which only makes the
			// admission filter more conservative.
			Inserts: map[string]float64{cluster[0]: float64(st.Inserts) / float64(len(cands))},
		}
		rec, err := advisor.PriceCluster(s, cluster, w, cm)
		if err != nil {
			continue // unmergeable under Def. 4.1 (e.g. nullable member)
		}
		sug := Suggestion{Rec: rec, CoAccessHits: hits}
		sug.Admitted = hits >= minHeat && rec.Merge
		sug.AutoApplicable = sug.Admitted && rec.OnlyNNA && rec.ProceduralConstraints == 0
		out = append(out, sug)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].AutoApplicable != out[j].AutoApplicable {
			return out[i].AutoApplicable
		}
		return out[i].Rec.NetBenefit > out[j].Rec.NetBenefit
	})
	return out
}

func edgeHeat(co []engine.CoAccessStat) map[[2]string]int64 {
	m := make(map[[2]string]int64, len(co))
	for _, e := range co {
		m[[2]string{e.Left, e.Right}] += e.Hits
	}
	return m
}

// clusterHeat sums the heat of edges whose BOTH endpoints are cluster
// members: cross-cluster traffic is not evidence for this merge.
func clusterHeat(heat map[[2]string]int64, cluster []string) int64 {
	in := make(map[string]bool, len(cluster))
	for _, n := range cluster {
		in[n] = true
	}
	var hits int64
	for edge, h := range heat {
		if in[edge[0]] && in[edge[1]] {
			hits += h
		}
	}
	return hits
}

// Target is a live engine the advisor can measure and migrate: the embedded
// engine satisfies it via ForDB, the shard router via its own methods.
type Target interface {
	// DesignSnapshot returns the current schema and its measurements. The
	// schema must be the one the co-access stats were measured against.
	DesignSnapshot() (*schema.Schema, []engine.CoAccessStat, engine.StatsSnapshot)
	// Migrate swaps the live design (engine.DB.MigrateSchema or
	// shard.Router.Migrate).
	Migrate(ns *schema.Schema, transform func(*state.DB) (*state.DB, error)) error
}

// dbTarget adapts a single engine.
type dbTarget struct{ db *engine.DB }

// ForDB wraps an embedded engine as a migration target.
func ForDB(db *engine.DB) Target { return dbTarget{db} }

func (t dbTarget) DesignSnapshot() (*schema.Schema, []engine.CoAccessStat, engine.StatsSnapshot) {
	return t.db.Schema, t.db.CoAccessStats(), t.db.StatsTotals()
}

func (t dbTarget) Migrate(ns *schema.Schema, transform func(*state.DB) (*state.DB, error)) error {
	return t.db.MigrateSchema(ns, transform)
}

// Apply installs an auto-applicable suggestion on the target; the loop's
// gate. Explicit operator-driven application (a reviewed recommendation) goes
// through ApplyCluster directly, which does not require the only-NNA regime.
func Apply(t Target, sug Suggestion) error {
	if !sug.AutoApplicable {
		return fmt.Errorf("advisor: suggestion %s is not auto-applicable (only-NNA merges may be applied automatically)", sug.Rec.MergedName)
	}
	return ApplyCluster(t, sug.Rec.Cluster, sug.Rec.MergedName, sug.Rec.KeyRelation)
}

// ApplyCluster merges the cluster on the target's CURRENT schema and
// migrates the live design. The merge is re-derived at apply time — if the
// design moved since the recommendation was computed (another migration won
// the race), the stale cluster no longer resolves and the merge step fails
// cleanly instead of installing a plan for a schema that no longer exists.
func ApplyCluster(t Target, cluster []string, mergedName, keyRelation string) error {
	s, _, _ := t.DesignSnapshot()
	m, err := core.MergeSet(s, cluster, core.WithName(mergedName), core.WithKeyRelation(keyRelation))
	if err != nil {
		return fmt.Errorf("advisor: re-deriving merge %s on the current design: %w", mergedName, err)
	}
	m.RemoveAll()
	return t.Migrate(m.Schema, func(st *state.DB) (*state.DB, error) { return m.MapState(st), nil })
}

// Mode selects what the Run loop does with an admitted suggestion.
type Mode int

const (
	// Off disables the loop entirely.
	Off Mode = iota
	// Suggest measures and decides, reporting admitted suggestions through
	// the callback, but never migrates.
	Suggest
	// Auto additionally applies the best auto-applicable suggestion.
	Auto
)

func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Suggest:
		return "suggest"
	case Auto:
		return "auto"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// LoopConfig configures Run.
type LoopConfig struct {
	Mode Mode
	// Interval between decision passes (default DefaultInterval).
	Interval time.Duration
	// Decide tunes the policy.
	Decide Config
	// OnSuggestion, if set, receives every ADMITTED suggestion of each pass
	// (both modes).
	OnSuggestion func(Suggestion)
	// OnApplied, if set, receives the result of each Auto-mode application.
	OnApplied func(Suggestion, error)
}

// DefaultInterval is the decision cadence when LoopConfig.Interval is zero.
const DefaultInterval = time.Second

// Run drives the measure→decide→migrate loop until ctx is canceled. In Auto
// mode at most one migration is applied per pass; the migration installs a
// fresh design whose co-access counters start cold, so the loop re-earns its
// evidence before acting again.
func Run(ctx context.Context, t Target, cfg LoopConfig) {
	if cfg.Mode == Off {
		return
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = DefaultInterval
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		s, co, st := t.DesignSnapshot()
		sugs := Decide(s, co, st, cfg.Decide)
		for _, sug := range sugs {
			if sug.Admitted && cfg.OnSuggestion != nil {
				cfg.OnSuggestion(sug)
			}
		}
		if cfg.Mode != Auto {
			continue
		}
		for _, sug := range sugs {
			if sug.AutoApplicable {
				err := Apply(t, sug)
				if cfg.OnApplied != nil {
					cfg.OnApplied(sug, err)
				}
				break
			}
		}
	}
}

// Start runs the loop on its own goroutine and returns its stop function
// (idempotent, returns after the loop exited).
func Start(t Target, cfg LoopConfig) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(ctx, t, cfg)
	}()
	return func() {
		cancel()
		<-done
	}
}
