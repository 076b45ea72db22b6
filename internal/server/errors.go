package server

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wal"
)

// Sentinels introduced by the service layer.
var (
	// ErrOverloaded is returned (fast, without queueing) when the server's
	// admission queue is full. Idempotent operations may be retried after
	// backoff; the client does so automatically.
	ErrOverloaded = errors.New("server: overloaded")
	// ErrDeadline is returned when a request's deadline expired before or
	// while it executed. It matches context.DeadlineExceeded via errors.Is
	// on responses decoded by the client.
	ErrDeadline = errors.New("server: deadline exceeded")
	// ErrProtocol marks a protocol violation (oversized frame, malformed
	// body, unknown op, duplicate in-flight request ID, version mismatch). The
	// offending connection fails closed; other connections are unaffected.
	ErrProtocol = errors.New("server: protocol violation")
	// ErrClosed is returned by client operations after Close, and by
	// requests refused because the server is draining.
	ErrClosed = errors.New("server: closed")
	// ErrTxn is returned for transaction sequencing errors (begin while
	// open, commit/rollback without begin).
	ErrTxn = errors.New("server: transaction sequencing error")
	// ErrReadOnly is returned for write operations against a read-only
	// backend: a replication follower serving reads pinned at its applied-LSN
	// horizon. Writes belong on the primary (or on this node after promotion).
	ErrReadOnly = errors.New("server: read-only replica")
	// ErrNotReplicating is returned for replication operations against a
	// backend that cannot ship its log (not durable, or not an engine).
	ErrNotReplicating = errors.New("server: backend does not support replication")
	// ErrUnsupported is returned for a capability the session's backend does
	// not offer at all — e.g. adaptive-merge advice on a remote session (the
	// design is the server's to change) or an advisor in Auto mode on a
	// read-only follower. Unlike ErrReadOnly it is not a role that promotion
	// can change; the operation belongs on a different backend.
	ErrUnsupported = errors.New("server: operation not supported by this backend")
)

// Code is a stable wire error code. Every sentinel the engine, WAL, merge
// core, and service layer can surface maps to exactly one code, so clients
// can branch on failures without parsing message text.
type Code string

// The full wire taxonomy. CodeOK never appears in an error response.
const (
	CodeOK      Code = "ok"
	CodeUnknown Code = "unknown"

	// Service layer.
	CodeProtocol    Code = "protocol"
	CodeOverloaded  Code = "overloaded"
	CodeDeadline    Code = "deadline"
	CodeCanceled    Code = "canceled"
	CodeClosed      Code = "closed"
	CodeTxn         Code = "txn"
	CodeReadOnly    Code = "read_only"
	CodeNotRepl     Code = "not_replicating"
	CodeUnsupported Code = "unsupported"

	// Engine.
	CodeUnknownRelation Code = "unknown_relation"
	CodeNoSuchTuple     Code = "no_such_tuple"
	CodeArityMismatch   Code = "arity_mismatch"
	CodeConstraint      Code = "constraint_violation"
	CodeMalformedIND    Code = "malformed_ind"
	CodeNotDurable      Code = "not_durable"
	CodeOpenTransaction Code = "open_transaction"
	CodeRecovery        Code = "recovery"

	// WAL.
	CodeWALCrashed   Code = "wal_crashed"
	CodeWALClosed    Code = "wal_closed"
	CodeWALGap       Code = "wal_gap"
	CodeWALCompacted Code = "wal_compacted"

	// Merge pipeline (Def. 4.1/4.3 + removability).
	CodeMergeSetTooSmall Code = "merge_set_too_small"
	CodeUnknownScheme    Code = "unknown_scheme"
	CodeDuplicateMember  Code = "duplicate_member"
	CodeNameCollision    Code = "name_collision"
	CodeIncompatibleKeys Code = "incompatible_keys"
	CodeNullableMember   Code = "nullable_member"
	CodeBadKeyRelation   Code = "bad_key_relation"
	CodeNotMember        Code = "not_member"
	CodeNotRemovable     Code = "not_removable"
)

// codeSentinels orders the sentinel→code mapping. Order matters only where
// errors wrap each other; more specific sentinels come first.
var codeSentinels = []struct {
	err  error
	code Code
}{
	{ErrProtocol, CodeProtocol},
	{ErrOverloaded, CodeOverloaded},
	{ErrDeadline, CodeDeadline},
	{ErrClosed, CodeClosed},
	{ErrTxn, CodeTxn},
	{ErrReadOnly, CodeReadOnly},
	{ErrNotReplicating, CodeNotRepl},
	{ErrUnsupported, CodeUnsupported},
	{context.DeadlineExceeded, CodeDeadline},
	{context.Canceled, CodeCanceled},

	{engine.ErrUnknownRelation, CodeUnknownRelation},
	{engine.ErrNoSuchTuple, CodeNoSuchTuple},
	{engine.ErrArityMismatch, CodeArityMismatch},
	{engine.ErrConstraintViolation, CodeConstraint},
	{engine.ErrMalformedIND, CodeMalformedIND},
	{engine.ErrNotDurable, CodeNotDurable},
	{engine.ErrOpenTransaction, CodeOpenTransaction},
	{engine.ErrRecovery, CodeRecovery},

	{wal.ErrCrashed, CodeWALCrashed},
	{wal.ErrClosed, CodeWALClosed},
	{wal.ErrGap, CodeWALGap},
	{wal.ErrCompacted, CodeWALCompacted},

	{core.ErrMergeSetTooSmall, CodeMergeSetTooSmall},
	{core.ErrUnknownScheme, CodeUnknownScheme},
	{core.ErrDuplicateMember, CodeDuplicateMember},
	{core.ErrNameCollision, CodeNameCollision},
	{core.ErrIncompatibleKeys, CodeIncompatibleKeys},
	{core.ErrNullableMember, CodeNullableMember},
	{core.ErrBadKeyRelation, CodeBadKeyRelation},
	{core.ErrNotMember, CodeNotMember},
}

// CodeOf maps any error from the merge pipeline, engine, WAL, or service
// layer to its stable wire code. nil maps to CodeOK; errors outside the
// taxonomy map to CodeUnknown. A *RemoteError keeps the code it arrived
// with, so CodeOf is stable across embedded and remote sessions.
func CodeOf(err error) Code {
	if err == nil {
		return CodeOK
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Code
	}
	var nr *core.ErrNotRemovable
	if errors.As(err, &nr) {
		return CodeNotRemovable
	}
	// ConstraintViolation wraps ErrConstraintViolation via Is, so the loop
	// below catches it; checking first keeps the intent explicit.
	var cv *engine.ConstraintViolation
	if errors.As(err, &cv) {
		return CodeConstraint
	}
	for _, s := range codeSentinels {
		if errors.Is(err, s.err) {
			return s.code
		}
	}
	return CodeUnknown
}

// sentinelOf is the inverse of the sentinel mapping: the representative
// error a client-side decoded response of this code should match with
// errors.Is — the first sentinel codeSentinels lists for it. Constraint
// violations are reconstructed with their payload and never reach it.
func sentinelOf(code Code) error {
	for _, s := range codeSentinels {
		if s.code == code {
			return s.err
		}
	}
	return nil
}

// RemoteError is a failure reported by the server. It unwraps (via Is) to
// the sentinel its code maps to, so `errors.Is(err, engine.ErrNoSuchTuple)`
// behaves identically whether the session is embedded or remote. Deadline
// codes additionally match both ErrDeadline and context.DeadlineExceeded.
type RemoteError struct {
	Code Code
	Msg  string
}

// Error returns the server-reported message, prefixed by the code.
func (e *RemoteError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("remote: %s", e.Code)
	}
	return fmt.Sprintf("remote: %s: %s", e.Code, e.Msg)
}

// Is matches the sentinel(s) associated with the error's code.
func (e *RemoteError) Is(target error) bool {
	if s := sentinelOf(e.Code); s != nil && s == target {
		return true
	}
	// Deadline expiry surfaces as context.DeadlineExceeded from an embedded
	// session; keep the remote session indistinguishable.
	if e.Code == CodeDeadline && target == context.DeadlineExceeded {
		return true
	}
	return false
}

// errorResponse builds the failure response for a request, embedding the
// typed constraint violation when there is one.
func errorResponse(id uint64, err error) *Response {
	resp := &Response{ID: id, Code: CodeOf(err), Error: err.Error()}
	errors.As(err, &resp.Violation)
	return resp
}

// responseError reconstructs the error of a failure response on the client
// side. Constraint violations come back as *engine.ConstraintViolation so
// errors.As works across the wire.
func responseError(resp *Response) error {
	if resp.OK {
		return nil
	}
	if resp.Violation != nil {
		return resp.Violation
	}
	return remoteError(resp.Code, resp.Error)
}

// remoteError is the error of a failure reply with this code and message.
func remoteError(code Code, msg string) error {
	if code == "" {
		code = CodeUnknown
	}
	return &RemoteError{Code: code, Msg: msg}
}
