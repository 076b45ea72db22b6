package fd

import (
	"sort"

	"repro/internal/attrset"
	"repro/internal/obs"
)

// engine is the package-level closure engine every fd entry point routes
// through. Dependency lists are compiled once into an attrset.Index (cached
// by structural fingerprint, so the ubiquitous call pattern "same deps
// slice, many seeds" pays one compile) and closure results are memoized, so
// the steady-state loops of CandidateKeys, MinimalCover, and the BCNF
// checks do no fixpoint work and no allocation.
var engine = attrset.NewEngine()

// RegisterMetrics publishes the package engine's cache counters into a
// metrics registry under engine=fd.
func RegisterMetrics(r *obs.Registry) { engine.Register(r, "fd") }

// compile returns the cached index for a dependency list.
func compile(deps []Dep) *attrset.Index {
	return engine.Index(len(deps), func(i int) ([]string, []string) {
		return deps[i].LHS, deps[i].RHS
	})
}

// ClosureReference is the pre-bitset implementation of Closure: a quadratic
// fixpoint over map-backed sets, re-run from scratch on every call. It is
// retained as the differential-testing oracle and benchmark baseline for
// the indexed engine; production paths use Closure.
func ClosureReference(attrs []string, deps []Dep) []string {
	closed := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		closed[a] = true
	}
	for changed := true; changed; {
		changed = false
		for _, d := range deps {
			if allIn(d.LHS, closed) {
				for _, a := range d.RHS {
					if !closed[a] {
						closed[a] = true
						changed = true
					}
				}
			}
		}
	}
	out := make([]string, 0, len(closed))
	for a := range closed {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func allIn(attrs []string, set map[string]bool) bool {
	for _, a := range attrs {
		if !set[a] {
			return false
		}
	}
	return true
}
