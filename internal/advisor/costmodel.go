package advisor

import "repro/internal/engine"

// CostModelFromStats calibrates a CostModel from the engine's own measured
// operation mix instead of DefaultCostModel's fixed guesses. The engine
// counts index probes, declarative checks, and trigger firings for every
// workload it serves (engine.StatsSnapshot); the ratio of probes to checks observed
// in a window tells us what a constraint check actually cost *on this
// deployment* relative to a lookup, which is the only quantity the pricing
// in Advise consumes (only ratios matter — IndexLookup stays the unit).
//
// A window with no constraint activity carries no calibration signal, so the
// constructor falls back to DefaultCostModel rather than dividing by zero.
func CostModelFromStats(st engine.StatsSnapshot) CostModel {
	checks := st.DeclarativeChecks + st.TriggerFirings
	if checks == 0 || st.IndexLookups == 0 {
		return DefaultCostModel()
	}
	// Probes spent per constraint check: the measured analogue of the
	// default model's 1-lookup-to-4-checks shape.
	probesPerCheck := float64(st.IndexLookups) / float64(checks)
	cm := CostModel{
		IndexLookup:      1,
		DeclarativeCheck: probesPerCheck * 0.25,
	}
	// Procedural maintenance stays an order of magnitude above a declarative
	// check (the paper's premise: triggers are the expensive mechanism), in
	// the same 16:1 proportion the default model uses.
	cm.TriggerFiring = cm.DeclarativeCheck * 16
	return cm
}
