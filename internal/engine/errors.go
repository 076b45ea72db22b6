package engine

import (
	"errors"
	"fmt"
)

// Sentinel errors for the engine's non-constraint failure modes. They are
// wrapped with operation context, so match with errors.Is.
var (
	// ErrUnknownRelation reports an operation against a relation the schema
	// does not define.
	ErrUnknownRelation = errors.New("engine: unknown relation")
	// ErrNoSuchTuple reports a key lookup that matched nothing where a match
	// was required (Delete, Update).
	ErrNoSuchTuple = errors.New("engine: no tuple with the given key")
	// ErrArityMismatch reports a tuple whose width differs from the scheme's.
	ErrArityMismatch = errors.New("engine: arity mismatch")
	// ErrConstraintViolation is the errors.Is target matched by every
	// *ConstraintViolation, regardless of kind.
	ErrConstraintViolation = errors.New("engine: constraint violation")
	// ErrMalformedIND reports a key-based inclusion dependency whose
	// right-side attribute list is not a permutation of the referenced
	// scheme's primary key, so its foreign-key probe could never be encoded
	// correctly. Detected at Open.
	ErrMalformedIND = errors.New("engine: malformed inclusion dependency")
	// ErrTooManyIndexes reports a table whose dependencies need more
	// secondary-index slots than a slot byte can name (maxSlots). Detected
	// at every bind.
	ErrTooManyIndexes = errors.New("engine: too many secondary indexes on one table")
	// ErrNonKeyFD reports an FD whose left side lacks its scheme's primary
	// key: the engine holds only key dependencies. Detected at every bind.
	ErrNonKeyFD = errors.New("engine: functional dependency is not a key dependency")
	// ErrNotDurable reports a durability operation (Checkpoint) on an engine
	// opened without WithDurability.
	ErrNotDurable = errors.New("engine: not opened with durability")
	// ErrOpenTransaction reports a Checkpoint attempted while a transaction
	// is open: its pre-checkpoint mutations would be baked into the snapshot
	// with no way to replay a later rollback.
	ErrOpenTransaction = errors.New("engine: transaction open")
	// ErrRecovery reports that crash recovery could not reconstruct a state
	// that decodes, loads, and passes full constraint re-validation.
	ErrRecovery = errors.New("engine: recovery failed")
)

// ViolationKind distinguishes the constraint regimes of section 5.1: the
// first three are declaratively maintainable on 1992-era systems, the last
// two need trigger/rule machinery.
type ViolationKind int

const (
	// NotNullViolation: a nulls-not-allowed attribute received a null.
	NotNullViolation ViolationKind = iota + 1
	// PrimaryKeyViolation: duplicate primary key.
	PrimaryKeyViolation
	// ForeignKeyViolation: a key-based inclusion dependency has no match in
	// the referenced relation.
	ForeignKeyViolation
	// NullConstraintViolation: a general (procedural) null constraint failed.
	NullConstraintViolation
	// RestrictViolation: a delete/update on the referenced side would orphan
	// a referencing tuple.
	RestrictViolation
)

// String names the kind.
func (k ViolationKind) String() string {
	switch k {
	case NotNullViolation:
		return "not-null"
	case PrimaryKeyViolation:
		return "primary-key"
	case ForeignKeyViolation:
		return "foreign-key"
	case NullConstraintViolation:
		return "null-constraint"
	case RestrictViolation:
		return "restrict"
	default:
		return "unknown"
	}
}

// ConstraintViolation is the typed error returned when a mutation violates a
// schema constraint. It matches ErrConstraintViolation under errors.Is and is
// extractable with errors.As for structured inspection.
type ConstraintViolation struct {
	// Kind classifies the violated constraint.
	Kind ViolationKind
	// Relation is the relation being modified.
	Relation string
	// Attr names the offending attribute (NotNullViolation only).
	Attr string
	// Constraint is the violated constraint rendered in the paper's notation
	// (inclusion dependencies and null constraints).
	Constraint string
	// Op is the mutating operation: "insert", "delete", or "update".
	Op string
}

// Error renders the violation in the engine's historical message format.
func (e *ConstraintViolation) Error() string {
	switch e.Kind {
	case NotNullViolation:
		return fmt.Sprintf("engine: %s.%s violates NOT NULL", e.Relation, e.Attr)
	case PrimaryKeyViolation:
		return fmt.Sprintf("engine: duplicate primary key in %s", e.Relation)
	case RestrictViolation:
		prep := "from"
		if e.Op == "update" {
			prep = "of"
		}
		return fmt.Sprintf("engine: %s %s %s restricted by %s", e.Op, prep, e.Relation, e.Constraint)
	default:
		return fmt.Sprintf("engine: %s violates %s", e.Relation, e.Constraint)
	}
}

// Is matches the generic ErrConstraintViolation sentinel.
func (e *ConstraintViolation) Is(target error) bool {
	return target == ErrConstraintViolation
}
