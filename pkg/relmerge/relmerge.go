// Package relmerge is the public API of this repository's reproduction of
// Markowitz's relation merging technique (ICDE 1992). It fronts the internal
// packages with a single import: load or build a schema, merge a set of
// relation-schemes with compatible primary keys (Def. 4.1), remove redundant
// key copies (Def. 4.3), plan whole-schema merges (Prop. 5.2), map database
// states through the η/η′ mappings, and observe all of it through a metrics
// registry and trace spans.
//
// External users should depend on this package only; everything under
// internal/ remains free to change shape between versions.
package relmerge

import (
	"context"
	"os"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/sdl"
	"repro/internal/state"
)

// Schema-side types, re-exported so callers never import internal/schema.
type (
	// Schema is a relational schema: relation-schemes plus FDs, inclusion
	// dependencies, and null constraints.
	Schema = schema.Schema
	// RelationScheme is one relation-scheme (attributes + primary key).
	RelationScheme = schema.RelationScheme
	// Attribute is a named, typed attribute of a relation-scheme.
	Attribute = schema.Attribute
	// IND is an inclusion dependency R[X] ⊆ S[Y].
	IND = schema.IND
	// FD is a functional dependency X → Y local to one scheme.
	FD = schema.FD
	// NullConstraint is any of the paper's null-constraint forms.
	NullConstraint = schema.NullConstraint

	// Merged is the record of one merge: the rewritten schema, the member
	// bookkeeping, the Def. 4.1/4.3 provenance trace, and the state mappings.
	Merged = core.MergedScheme
	// Option configures Merge, Remove, Plan, and Apply.
	Option = core.Option

	// DB is a database state: one relation per scheme.
	DB = state.DB
	// Tuple is one row of a relation.
	Tuple = relation.Tuple
	// Value is one attribute value, possibly null.
	Value = relation.Value

	// Registry collects counters, gauges, and histograms.
	Registry = obs.Registry
	// Point is one metric sample in a Registry snapshot.
	Point = obs.Point
	// Tracer records span events emitted by the merge pipeline.
	Tracer = obs.Tracer
	// SpanEvent is one completed span in a trace.
	SpanEvent = obs.SpanEvent
)

// Schema constructors.
var (
	// NewScheme builds a relation-scheme from attributes and a primary key.
	NewScheme = schema.NewScheme
	// NewIND builds the inclusion dependency left[leftAttrs] ⊆ right[rightAttrs].
	NewIND = schema.NewIND
	// NNA builds a nulls-not-allowed constraint on the given attributes.
	NNA = schema.NNA
	// NewString builds a string value; Null builds the null marker.
	NewString = relation.NewString
	// Null is the null value marker used by the outer-join η mapping.
	Null = relation.Null
)

// Merge options, re-exported from internal/core.
var (
	// WithName names the merged relation-scheme (default: key-relation + "'").
	WithName = core.WithName
	// WithKeyRelation forces a member to serve as the key-relation Rk.
	WithKeyRelation = core.WithKeyRelation
	// WithSyntheticKey forces a synthetic key even when Prop. 3.1 holds.
	WithSyntheticKey = core.WithSyntheticKey
	// WithTrace records the pipeline's spans into a Tracer.
	WithTrace = core.WithTrace
	// WithObserver streams the Def. 4.1/4.3 trace lines as they are produced.
	WithObserver = core.WithObserver
)

// Typed errors, re-exported for errors.Is/As against facade results.
var (
	ErrMergeSetTooSmall = core.ErrMergeSetTooSmall
	ErrUnknownScheme    = core.ErrUnknownScheme
	ErrDuplicateMember  = core.ErrDuplicateMember
	ErrNameCollision    = core.ErrNameCollision
	ErrIncompatibleKeys = core.ErrIncompatibleKeys
	ErrNullableMember   = core.ErrNullableMember
	ErrBadKeyRelation   = core.ErrBadKeyRelation
	ErrNotMember        = core.ErrNotMember
)

// ErrNotRemovable reports which Def. 4.2 removability condition failed; use
// errors.As to recover the member, attributes, and condition.
type ErrNotRemovable = core.ErrNotRemovable

// NewSchema returns an empty schema to build by hand with NewScheme/NewIND/NNA.
func NewSchema() *Schema { return schema.New() }

// ParseSchema parses a schema written in the SDL notation (see internal/sdl).
func ParseSchema(src string) (*Schema, error) { return sdl.ParseSchema(src) }

// LoadSchema reads and parses an SDL schema file.
func LoadSchema(path string) (*Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return sdl.ParseSchema(string(data))
}

// Fig3 returns the paper's figure 3 university schema, and Fig3State a small
// deterministic database state consistent with it.
func Fig3() *Schema          { return figures.Fig3() }
func Fig3State() *DB         { return figures.Fig3State() }
func NewState(s *Schema) *DB { return state.New(s) }

// ParseState parses a data file (insert statements) against a schema.
func ParseState(s *Schema, src string) (*DB, error) { return sdl.ParseState(s, src) }

// PrintSchema renders a schema in the SDL notation; ParseSchema reads it back.
func PrintSchema(s *Schema) string { return sdl.PrintSchema(s) }

// PrintState renders a database state as SDL insert statements.
func PrintState(s *Schema, db *DB) string { return sdl.PrintState(s, db) }

// Consistent reports whether db satisfies all of s's constraints.
func Consistent(s *Schema, db *DB) error { return state.Consistent(s, db) }

// Merge merges the named relation-schemes of s per Definition 4.1. The input
// schema is never mutated; the result's Schema field holds the rewrite. Use
// the returned Merged to Remove key copies, inspect the Trace, and map states.
func Merge(s *Schema, names []string, opts ...Option) (*Merged, error) {
	return MergeCtx(context.Background(), s, names, opts...)
}

// MergeCtx is Merge with cancellation, honored between pipeline steps and
// carried into span events.
func MergeCtx(ctx context.Context, s *Schema, names []string, opts ...Option) (*Merged, error) {
	return core.MergeSet(s, names, withCtx(ctx, opts)...)
}

// Plan returns the disjoint merge sets satisfying Proposition 5.2 — each
// merges to a relation-scheme maintainable with only nulls-not-allowed
// constraints — key-relation first in each cluster.
func Plan(s *Schema, opts ...Option) [][]string {
	return PlanCtx(context.Background(), s, opts...)
}

// PlanCtx is Plan with cancellation.
func PlanCtx(ctx context.Context, s *Schema, opts ...Option) [][]string {
	return core.Prop52Clusters(s, withCtx(ctx, opts)...)
}

// Apply merges every planned cluster and removes all removable key copies,
// returning the rewritten schema and the per-cluster merge records.
func Apply(s *Schema, clusters [][]string, opts ...Option) (*Schema, []*Merged, error) {
	return ApplyCtx(context.Background(), s, clusters, opts...)
}

// ApplyCtx is Apply with cancellation, checked between clusters so a large
// whole-schema merge can be abandoned at a cluster boundary.
func ApplyCtx(ctx context.Context, s *Schema, clusters [][]string, opts ...Option) (*Schema, []*Merged, error) {
	return core.ApplyPlan(s, clusters, withCtx(ctx, opts)...)
}

// withCtx prepends the context as an option.
func withCtx(ctx context.Context, opts []Option) []Option {
	if ctx == context.Background() {
		return opts
	}
	return append([]Option{core.WithContext(ctx)}, opts...)
}

// NewRegistry returns an empty metrics registry; pass it to engine and cache
// registration points, then read it back with Snapshot.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewTracer returns a span tracer with the default capacity; attach it to a
// merge pipeline with WithTrace.
func NewTracer() *Tracer { return obs.NewTracer(obs.DefaultTraceCapacity) }

// Snapshot reads every metric of a registry at one instant, sorted by name
// then labels. It is safe to call concurrently with updates, and safe on a
// nil registry (returns nil).
func Snapshot(r *Registry) []Point { return r.Snapshot() }
