package db

import (
	"errors"
	"fmt"
)

// Sentinel causes for database failures, matched with errors.Is through
// *Error's Unwrap — the same taxonomy *dataflow.Error established for
// evaluation failures. They carry no position; the wrapping *Error
// names the operation and table.
var (
	// ErrNoSuchTable: the named table is not in the catalog (or not in
	// the snapshot being read).
	ErrNoSuchTable = errors.New("no such table")
	// ErrTableExists: CreateTable found the name already registered.
	ErrTableExists = errors.New("table already exists")
	// ErrSnapshotStale: an optimistic write found the table's generation
	// had moved past the snapshot it was validated against.
	ErrSnapshotStale = errors.New("snapshot is stale")
	// ErrBadSnapshotFormat: LoadBackend found a manifest that is not a
	// Tioga database manifest (missing or foreign magic header), one
	// whose format version this build does not understand, or one whose
	// content is not a valid catalog.
	ErrBadSnapshotFormat = errors.New("bad snapshot format")
)

// Error is the typed error of the db package: Op names the operation
// ("create", "drop", "table", "update", "undo", "snapshot", ...), Table
// the stored object involved — a table, or a program/definition name
// for the catalog's other stores (may be empty) — and Err the cause —
// one of the sentinels above or a descriptive error. It satisfies
// errors.Is/errors.As against its cause.
type Error struct {
	Op    string
	Table string
	Err   error
}

// Error implements error.
func (e *Error) Error() string {
	if e.Table == "" {
		return fmt.Sprintf("db: %s: %v", e.Op, e.Err)
	}
	return fmt.Sprintf("db: %s %q: %v", e.Op, e.Table, e.Err)
}

// Unwrap exposes the cause to errors.Is and errors.As.
func (e *Error) Unwrap() error { return e.Err }

// opErr wraps a cause with operation and table context.
func opErr(op, table string, cause error) *Error {
	return &Error{Op: op, Table: table, Err: cause}
}
