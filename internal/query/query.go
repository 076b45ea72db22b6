// Package query implements a logical query layer over the merging technique:
// queries are phrased against the ORIGINAL schema's attributes and answered
// on either the base engine (one indexed lookup per owning relation — the
// navigational join) or the merged engine (a single lookup, with removed key
// copies reconstructed from the total-equality semantics of Definition 4.3's
// μ′ mapping).
//
// This is the payoff of information-capacity preservation made operational:
// the same logical query returns identical answers on both physical designs,
// and the planner makes the access-path difference observable through the
// engine's counters.
package query

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
)

// Query asks for the values of original-schema attributes of the object
// identified by the root scheme's primary-key value. Every wanted attribute
// must belong to a scheme whose primary key is compatible with the root's
// (the key-sharing cluster the merge operates on).
type Query struct {
	Root string
	Key  relation.Tuple
	Want []string
}

// Result maps requested attributes to values; attributes of absent member
// parts are null.
type Result map[string]relation.Value

// Planner answers logical queries on one physical design.
type Planner interface {
	Answer(q Query) (Result, error)
}

// Planner metric names. Base and merged planners report under distinct
// names, so one registry shows the access-path difference directly: the base
// planner performs one relation lookup per owning scheme, the merged planner
// one lookup per query plus μ′ reconstructions for removed attributes.
const (
	metricBaseQueries    = "query.base.queries"
	metricBaseLookups    = "query.base.relation_lookups"
	metricMergedQueries  = "query.merged.queries"
	metricMergedReconstr = "query.merged.reconstructions"
)

// BasePlanner answers on the unmerged design: one key lookup per owning
// relation-scheme.
type BasePlanner struct {
	DB *engine.DB
	// Obs, when set, receives planner-decision counters (query.base.*).
	Obs *obs.Registry
}

// Answer implements Planner.
func (p *BasePlanner) Answer(q Query) (Result, error) {
	return p.AnswerCtx(context.Background(), q)
}

// AnswerCtx is Answer with a context: a tracer carried by the context
// records a query.base.Answer span.
func (p *BasePlanner) AnswerCtx(ctx context.Context, q Query) (Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, sp := obs.Span(ctx, "query.base.Answer")
	defer sp.End()
	p.Obs.Counter(metricBaseQueries).Inc()
	s := p.DB.Schema
	root := s.Scheme(q.Root)
	if root == nil {
		return nil, fmt.Errorf("query: unknown root %s", q.Root)
	}
	byScheme := make(map[string][]string)
	for _, a := range q.Want {
		owner := s.SchemeOf(a)
		if owner == nil {
			return nil, fmt.Errorf("query: unknown attribute %s", a)
		}
		if !owner.KeyCompatible(root) {
			return nil, fmt.Errorf("query: attribute %s lives outside %s's key cluster", a, q.Root)
		}
		byScheme[owner.Name] = append(byScheme[owner.Name], a)
	}
	out := make(Result, len(q.Want))
	for name, attrs := range byScheme {
		p.Obs.Counter(metricBaseLookups).Inc()
		tup, ok, err := p.DB.GetByKeyCtx(ctx, name, q.Key)
		if err != nil {
			return nil, err
		}
		rel := p.DB.Header(name)
		for _, a := range attrs {
			if ok {
				out[a] = tup[rel.Position(a)]
			} else {
				out[a] = relation.Null()
			}
		}
	}
	return out, nil
}

// MergedPlanner answers on the merged design through the merge metadata: a
// single lookup on the merged relation; attributes removed by Remove are
// reconstructed as the corresponding Km value when the member part is
// present (its surviving attributes are total, per the null-synchronization
// semantics) and null otherwise.
type MergedPlanner struct {
	DB *engine.DB
	M  *core.MergedScheme
	// Obs, when set, receives planner-decision counters (query.merged.*).
	Obs *obs.Registry
}

// Answer implements Planner.
func (p *MergedPlanner) Answer(q Query) (Result, error) {
	return p.AnswerCtx(context.Background(), q)
}

// AnswerCtx is Answer with a context: a tracer carried by the context
// records a query.merged.Answer span.
func (p *MergedPlanner) AnswerCtx(ctx context.Context, q Query) (Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, sp := obs.Span(ctx, "query.merged.Answer")
	defer sp.End()
	p.Obs.Counter(metricMergedQueries).Inc()
	rootMember := p.M.Member(q.Root)
	if rootMember == nil {
		return nil, fmt.Errorf("query: root %s is not a member of the merge", q.Root)
	}
	rel := p.DB.Header(p.M.Name)
	row, ok, err := p.DB.GetByKeyCtx(ctx, p.M.Name, q.Key)
	if err != nil {
		return nil, err
	}

	out := make(Result, len(q.Want))
	for _, a := range q.Want {
		if !ok {
			out[a] = relation.Null()
			continue
		}
		if pos := rel.Position(a); pos >= 0 {
			out[a] = row[pos]
			continue
		}
		p.Obs.Counter(metricMergedReconstr).Inc()
		v, err := p.reconstructRemoved(rel, row, a)
		if err != nil {
			return nil, err
		}
		out[a] = v
	}
	return out, nil
}

// reconstructRemoved rebuilds the value of a removed key-copy attribute a:
// if the owning member's surviving attributes are total in the row, a equals
// the corresponding Km value (total equality); otherwise the member part is
// absent and a is null. This is Definition 4.3's μ′, evaluated per row.
func (p *MergedPlanner) reconstructRemoved(rel *relation.Relation, row relation.Tuple, a string) (relation.Value, error) {
	for _, yj := range p.M.Removals() {
		if !schema.ContainsAttr(yj, a) {
			continue
		}
		member := p.memberOfKeyCopy(yj)
		if member == nil {
			break
		}
		remaining := schema.DiffAttrs(member.Attrs, yj)
		for _, ra := range remaining {
			if pos := rel.Position(ra); pos >= 0 && row[pos].IsNull() {
				return relation.Null(), nil
			}
		}
		// Member present: a = the Km attribute at the same key position.
		for i, k := range member.Key {
			if k == a {
				return row[rel.Position(p.M.Km[i])], nil
			}
		}
	}
	return relation.Null(), fmt.Errorf("query: attribute %s is neither in the merged scheme nor a removed key copy", a)
}

func (p *MergedPlanner) memberOfKeyCopy(yj []string) *core.Member {
	for i := range p.M.Members {
		if schema.EqualAttrSets(p.M.Members[i].Key, yj) {
			return &p.M.Members[i]
		}
	}
	return nil
}
