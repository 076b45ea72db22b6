// Package advisor turns the paper's merging technique into a workload-driven
// design tool: given a relational schema in the baseline form and a workload
// description (object-profile query and insert frequencies), it finds the
// merge clusters (Prop. 3.1 key-relation closures), applies Merge + RemoveAll
// to each to obtain the *exact* post-merge constraint sets, prices both
// designs under a simple operation-cost model matching the engine's counters,
// and recommends the merges whose access-path savings outweigh their
// constraint-maintenance overhead.
//
// This is the design loop the paper's §6 SDT tool supports manually ("the
// options of (i) ... not using merging, or (ii) using merging"), made
// quantitative.
package advisor

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/keyrel"
	"repro/internal/nullcon"
	"repro/internal/schema"
)

// Workload gives per-scheme access frequencies (arbitrary units; only ratios
// matter).
type Workload struct {
	// ProfileQueries is the frequency of object-profile queries rooted at a
	// scheme: fetch the object and every dependent part of its cluster.
	ProfileQueries map[string]float64
	// Inserts is the frequency of full-object inserts rooted at a scheme
	// (one row in every cluster member vs. one merged row).
	Inserts map[string]float64
}

// CostModel prices the primitive operations the engine counts.
type CostModel struct {
	IndexLookup      float64
	DeclarativeCheck float64
	TriggerFiring    float64
}

// DefaultCostModel approximates the engine: indexed operations are cheap and
// uniform; a trigger firing costs several probes' worth of work (the paper's
// "tedious and error-prone" procedural mechanisms are also slower).
func DefaultCostModel() CostModel {
	return CostModel{IndexLookup: 1, DeclarativeCheck: 0.25, TriggerFiring: 4}
}

// Recommendation prices one candidate cluster.
type Recommendation struct {
	Cluster     []string
	KeyRelation string
	MergedName  string
	// OnlyNNA reports whether the merged constraint set is purely
	// nulls-not-allowed (Prop. 5.2 regime — declaratively maintainable).
	OnlyNNA bool
	// ProceduralConstraints counts the merged constraints needing
	// trigger/rule maintenance.
	ProceduralConstraints int
	// Per-operation costs under the model.
	BaseQueryCost    float64
	MergedQueryCost  float64
	BaseInsertCost   float64
	MergedInsertCost float64
	// NetBenefit is the workload-weighted saving of merging (positive means
	// merge).
	NetBenefit float64
	// Merge is the recommendation.
	Merge bool
}

// Clusters finds the maximal disjoint merge clusters of the schema: for each
// scheme in declaration order, the downward closure of schemes whose primary
// keys are included in a member's primary key (so the root is a key-relation
// of the cluster by Prop. 3.1). Only clusters of two or more schemes are
// returned.
func Clusters(s *schema.Schema) [][]string {
	used := make(map[string]bool)
	var out [][]string
	for _, root := range s.Relations {
		if used[root.Name] {
			continue
		}
		cluster := closure(s, root.Name, used)
		if len(cluster) < 2 {
			continue
		}
		if !keyrel.IsKeyRelation(s, root.Name, cluster) {
			continue
		}
		for _, n := range cluster {
			used[n] = true
		}
		out = append(out, cluster)
	}
	return out
}

// closure grows the member set downward along key-based inclusion
// dependencies Ri[Ki] ⊆ member[Kmember].
func closure(s *schema.Schema, root string, used map[string]bool) []string {
	members := []string{root}
	inSet := map[string]bool{root: true}
	for changed := true; changed; {
		changed = false
		for _, current := range members {
			for _, candidate := range keyrel.Refkey(s, current, s.SchemeNames()) {
				if !inSet[candidate] && !used[candidate] {
					inSet[candidate] = true
					members = append(members, candidate)
					changed = true
				}
			}
		}
	}
	// Preserve declaration order for determinism.
	var ordered []string
	for _, rs := range s.Relations {
		if inSet[rs.Name] {
			ordered = append(ordered, rs.Name)
		}
	}
	// Root first (it is the key-relation).
	for i, n := range ordered {
		if n == root && i != 0 {
			copy(ordered[1:i+1], ordered[:i])
			ordered[0] = root
		}
	}
	return ordered
}

// Advise prices every cluster under the workload and cost model. Clusters
// whose merge fails (e.g. nullable member attributes) are skipped.
//
// Clusters are independent — MergeSet clones the schema before mutating and
// the pricing reads are pure — so each cluster's merge + removal + pricing
// runs on its own goroutine, bounded by GOMAXPROCS. Results are collected by
// cluster position and then stably sorted by net benefit, so the output is
// identical to the sequential evaluation.
func Advise(s *schema.Schema, w Workload, cm CostModel) ([]Recommendation, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	clusters := Clusters(s)
	recs := make([]*Recommendation, len(clusters))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, cluster := range clusters {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, cluster []string) {
			defer func() { <-sem; wg.Done() }()
			rec, err := PriceCluster(s, cluster, w, cm)
			if err != nil {
				return
			}
			recs[i] = &rec
		}(i, cluster)
	}
	wg.Wait()
	out := make([]Recommendation, 0, len(recs))
	for _, rec := range recs {
		if rec != nil {
			out = append(out, *rec)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].NetBenefit > out[j].NetBenefit })
	return out, nil
}

// PriceCluster merges one candidate cluster (key-relation first), removes
// every removable key copy, and prices the before/after designs under the
// workload and cost model. Unlike Advise it accepts any cluster — the online
// advisor prices Prop. 5.2 clusters (auto-applicable, only-NNA) alongside the
// maximal Prop. 3.1 closures Advise enumerates. The merge error is returned
// (e.g. ErrNullableMember), letting the caller distinguish "unmergeable" from
// "not worth it".
func PriceCluster(s *schema.Schema, cluster []string, w Workload, cm CostModel) (Recommendation, error) {
	name := cluster[0] + "+"
	m, err := core.MergeSet(s, cluster, core.WithName(name), core.WithKeyRelation(cluster[0]))
	if err != nil {
		return Recommendation{}, err
	}
	m.RemoveAll()
	return price(s, m, cluster, w, cm), nil
}

func price(s *schema.Schema, m *core.MergedScheme, cluster []string, w Workload, cm CostModel) Recommendation {
	rec := Recommendation{
		Cluster:     cluster,
		KeyRelation: m.KeyRelation,
		MergedName:  m.Name,
		OnlyNNA:     nullcon.OnlyNNA(m.Schema.NullsOf(m.Name)),
	}
	for _, nc := range m.Schema.NullsOf(m.Name) {
		if ne, ok := nc.(schema.NullExistence); ok && ne.IsNNA() {
			continue
		}
		rec.ProceduralConstraints++
	}
	for _, ind := range m.Schema.INDs {
		if !ind.KeyBased(m.Schema) {
			rec.ProceduralConstraints++
		}
	}

	// Query: one lookup per member vs. one lookup total.
	rec.BaseQueryCost = float64(len(cluster)) * cm.IndexLookup
	rec.MergedQueryCost = cm.IndexLookup

	// Insert of a full object.
	for _, name := range cluster {
		rs := s.Scheme(name)
		checks := float64(len(rs.Attrs))*cm.DeclarativeCheck + cm.DeclarativeCheck // NOT NULLs + PK
		checks += cm.IndexLookup                                                   // PK probe
		for _, ind := range s.INDsFrom(name) {
			_ = ind
			checks += cm.DeclarativeCheck + cm.IndexLookup
		}
		rec.BaseInsertCost += checks
	}
	merged := m.Schema.Scheme(m.Name)
	rec.MergedInsertCost = float64(len(merged.Attrs))*cm.DeclarativeCheck + cm.DeclarativeCheck + cm.IndexLookup
	for range m.Schema.INDsFrom(m.Name) {
		rec.MergedInsertCost += cm.DeclarativeCheck + cm.IndexLookup
	}
	rec.MergedInsertCost += float64(rec.ProceduralConstraints) * cm.TriggerFiring

	qf := w.ProfileQueries[cluster[0]]
	inf := w.Inserts[cluster[0]]
	rec.NetBenefit = qf*(rec.BaseQueryCost-rec.MergedQueryCost) + inf*(rec.BaseInsertCost-rec.MergedInsertCost)
	rec.Merge = rec.NetBenefit > 0
	return rec
}

// Report renders recommendations as a table.
func Report(recs []Recommendation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %-10s %-8s %-20s %-20s %-12s %s\n",
		"cluster", "only-NNA", "triggers", "query base→merged", "insert base→merged", "net benefit", "advice")
	for _, r := range recs {
		advice := "keep split"
		if r.Merge {
			advice = "MERGE"
		}
		fmt.Fprintf(&b, "%-36s %-10v %-8d %6.1f → %-11.1f %6.1f → %-11.1f %-12.1f %s\n",
			strings.Join(r.Cluster, ","), r.OnlyNNA, r.ProceduralConstraints,
			r.BaseQueryCost, r.MergedQueryCost,
			r.BaseInsertCost, r.MergedInsertCost,
			r.NetBenefit, advice)
	}
	return b.String()
}
