package relmerge

import (
	"context"
	"fmt"
	"time"

	"repro/internal/advisor"
	"repro/internal/advisor/online"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/shard"
)

// This file is the public surface of adaptive merging: the engine measures
// its own access patterns (per-IND co-access counters on the lock-free fetch
// path), Advise turns the measurements into priced merge recommendations,
// and ApplyRecommendation migrates the live design — all through the same
// Session the operational API uses. Opening a session with WithAdvisor runs
// the measure→decide→migrate loop in the background.

// AdvisorMode selects what the background advisor does.
type AdvisorMode int

const (
	// AdvisorOff disables the background advisor (the zero value).
	AdvisorOff AdvisorMode = iota
	// AdvisorSuggest measures and decides but never migrates; admitted
	// recommendations are delivered to AdvisorConfig.OnSuggestion.
	AdvisorSuggest
	// AdvisorAuto additionally applies the best auto-applicable
	// recommendation — only merges in the Prop. 5.2 only-NNA regime, whose
	// post-merge constraint set is declaratively maintainable, are ever
	// applied without review.
	AdvisorAuto
)

func (m AdvisorMode) String() string { return online.Mode(m).String() }

// ParseAdvisorMode parses "off", "suggest", or "auto" (the -advise flag
// values of relmerged).
func ParseAdvisorMode(s string) (AdvisorMode, error) {
	switch s {
	case "off":
		return AdvisorOff, nil
	case "suggest":
		return AdvisorSuggest, nil
	case "auto":
		return AdvisorAuto, nil
	}
	return AdvisorOff, fmt.Errorf("relmerge: unknown advisor mode %q (want off, suggest, or auto)", s)
}

// AdvisorConfig configures the adaptive-merge advisor, both the one-shot
// Advise call and the background loop a session runs when opened with
// WithAdvisor.
type AdvisorConfig struct {
	// Mode is what the background loop does (Advise itself ignores it).
	Mode AdvisorMode
	// Interval is the background decision cadence (default 1s).
	Interval time.Duration
	// MinCoAccess is the admission heat: a cluster is recommended only after
	// its internal dependency edges accumulated this many co-accesses on the
	// current design (default online.DefaultMinCoAccess).
	MinCoAccess int64
	// CostModel pins the pricing model; nil calibrates one from the
	// session's measured operation mix (CostModelFromStats).
	CostModel *CostModel
	// OnSuggestion, if set, receives every admitted recommendation of each
	// background pass (Suggest and Auto modes).
	OnSuggestion func(Recommendation)
	// OnApplied, if set, receives the result of each automatic application.
	OnApplied func(Recommendation, error)
}

// Recommendation is one priced merge candidate, the stable public shape of
// the advisor's output: enough to display, persist, and hand back to
// ApplyRecommendation.
type Recommendation struct {
	// Cluster is the member set, key-relation first.
	Cluster []string
	// KeyRelation is the Prop. 3.1 key-relation the merge is rooted at.
	KeyRelation string
	// MergedName is the name the merged relation-scheme will carry.
	MergedName string
	// OnlyNNA reports the Prop. 5.2 regime: the post-merge constraint set is
	// purely nulls-not-allowed, hence declaratively maintainable.
	OnlyNNA bool
	// ProceduralConstraints counts the constraints needing trigger/rule
	// maintenance that the merge adds to the design.
	ProceduralConstraints int
	// NetBenefit is the workload-weighted saving of merging (positive means
	// the advisor recommends it).
	NetBenefit float64
	// CoAccessHits is the measured join-shaped traffic inside the cluster
	// that admitted it.
	CoAccessHits int64
	// Admitted: hot enough and priced net-positive.
	Admitted bool
	// AutoApplicable: admitted and in the only-NNA regime — what AdvisorAuto
	// is allowed to apply unattended.
	AutoApplicable bool
}

func publicRec(s online.Suggestion) Recommendation {
	return Recommendation{
		Cluster:               append([]string(nil), s.Rec.Cluster...),
		KeyRelation:           s.Rec.KeyRelation,
		MergedName:            s.Rec.MergedName,
		OnlyNNA:               s.Rec.OnlyNNA,
		ProceduralConstraints: s.Rec.ProceduralConstraints,
		NetBenefit:            s.Rec.NetBenefit,
		CoAccessHits:          s.CoAccessHits,
		Admitted:              s.Admitted,
		AutoApplicable:        s.AutoApplicable,
	}
}

func (cfg AdvisorConfig) decide() online.Config {
	return online.Config{MinCoAccess: cfg.MinCoAccess, CostModel: cfg.CostModel}
}

// advisorTarget returns the live design the session fronts, or nil when the
// backend does not own one (remote: the design is the server's; follower:
// the design is dictated by the primary's shipped log).
func advisorTarget(sess Session) online.Target {
	if s, ok := sess.(interface{ designTarget() online.Target }); ok {
		return s.designTarget()
	}
	return nil
}

type routerTarget struct{ r *shard.Router }

func (t routerTarget) DesignSnapshot() (*Schema, []engine.CoAccessStat, EngineStats) {
	return t.r.Schema(), t.r.CoAccessStats(), t.r.StatsTotals()
}

func (t routerTarget) Migrate(spec core.Spec) error { return t.r.Migrate(spec) }

// Advise measures the session's live design — its schema, co-access heat,
// and operation mix — and returns the priced merge recommendations, best
// first. It works on backends that own their design (Embedded, Sharded);
// Remote and Follower sessions return ErrUnsupported (Code CodeUnsupported):
// a remote server's design is its own to adapt, and a follower's design is
// dictated by the primary it replays.
func Advise(sess Session, cfg AdvisorConfig) ([]Recommendation, error) {
	t := advisorTarget(sess)
	if t == nil {
		return nil, fmt.Errorf("%w: adaptive-merge advice requires a session that owns its design (embedded or sharded)", ErrUnsupported)
	}
	s, co, st := t.DesignSnapshot()
	sugs := online.Decide(s, co, st, cfg.decide())
	out := make([]Recommendation, len(sugs))
	for i, sug := range sugs {
		out[i] = publicRec(sug)
	}
	return out, nil
}

// startAdvisor wires the background loop for a just-opened session; returns
// nil when the config keeps it off.
func startAdvisor(t online.Target, cfg AdvisorConfig) (stop func()) {
	if cfg.Mode == AdvisorOff {
		return nil
	}
	lc := online.LoopConfig{
		Mode:     online.Mode(cfg.Mode),
		Interval: cfg.Interval,
		Decide:   cfg.decide(),
	}
	if cfg.OnSuggestion != nil {
		lc.OnSuggestion = func(s online.Suggestion) { cfg.OnSuggestion(publicRec(s)) }
	}
	if cfg.OnApplied != nil {
		lc.OnApplied = func(s online.Suggestion, err error) { cfg.OnApplied(publicRec(s), err) }
	}
	return online.Start(t, lc)
}

// StartAdvisor runs the background measure→decide→migrate loop against an
// already-open session — what Open does internally for Config.Advisor —
// and returns its stop function (idempotent). Callers that build their
// backend by hand (relmerged assembles engines through the η mappings
// before serving) attach the advisor here. AdvisorOff returns a no-op stop;
// backends that do not own their design return ErrUnsupported.
func StartAdvisor(sess Session, cfg AdvisorConfig) (stop func(), err error) {
	t := advisorTarget(sess)
	if t == nil {
		return nil, fmt.Errorf("%w: the adaptive-merge advisor requires a session that owns its design (embedded or sharded)", ErrUnsupported)
	}
	stop = startAdvisor(t, cfg)
	if stop == nil {
		stop = func() {}
	}
	return stop, nil
}

// ApplyRecommendation returns ErrUnsupported: a remote server's design is
// its own to adapt (run the advisor server-side with relmerged -advise).
func (s *RemoteSession) ApplyRecommendation(ctx context.Context, rec Recommendation) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return fmt.Errorf("%w: a remote session cannot migrate the server's design; run the advisor on the server (relmerged -advise)", ErrUnsupported)
}

// Offline advisor facade: the §6 design-tool loop over a written-down
// workload description, re-exported so cmd/sdt and examples need no internal
// imports. The online path (Advise above) synthesizes the workload from live
// measurements instead.
type (
	// Workload gives per-scheme access frequencies for offline advice.
	Workload = advisor.Workload
	// CostModel prices the primitive operations the engine counts.
	CostModel = advisor.CostModel
	// DesignRecommendation is one priced candidate of the offline advisor.
	DesignRecommendation = advisor.Recommendation
)

var (
	// DefaultCostModel is the fixed-ratio cost model.
	DefaultCostModel = advisor.DefaultCostModel
	// CostModelFromStats calibrates a cost model from a session's measured
	// operation mix (Session.StatsCtx).
	CostModelFromStats = advisor.CostModelFromStats
	// AdviseDesign prices every merge cluster of a schema under an explicit
	// workload description (the offline §6 loop).
	AdviseDesign = advisor.Advise
	// DesignReport renders offline recommendations as a table.
	DesignReport = advisor.Report
)
