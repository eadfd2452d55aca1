package server

import (
	"errors"
	"net/http"
	"time"

	"repro/internal/spec"
	"repro/internal/sweep"
)

// The typed wire-error contract lives in internal/sweep: the sweep
// pipeline — not any one HTTP daemon — owns the wire format end to end.
// These aliases keep internal/server's surface (and its callers: fleet,
// chaos, tests) stable.

// APIError is a typed, client-dispatchable request failure.
type APIError = sweep.APIError

// Error codes returned in the "code" field of error responses.
const (
	CodeBadRequest       = sweep.CodeBadRequest
	CodeInvalidWorkload  = sweep.CodeInvalidWorkload
	CodeInvalidStrategy  = sweep.CodeInvalidStrategy
	CodeInvalidConfig    = sweep.CodeInvalidConfig
	CodeInvalidSweep     = sweep.CodeInvalidSweep
	CodeTooManyJobs      = sweep.CodeTooManyJobs
	CodeQueueFull        = sweep.CodeQueueFull
	CodeDeadlineExceeded = sweep.CodeDeadlineExceeded
	CodeCanceled         = sweep.CodeCanceled
	CodeSimFailed        = sweep.CodeSimFailed
	CodeMethodNotAllowed = sweep.CodeMethodNotAllowed
)

// Errf builds a typed error with a formatted message.
func Errf(status int, code, field, format string, args ...any) *APIError {
	return sweep.Errf(status, code, field, format, args...)
}

// badField is the common 400 constructor used by the spec builders.
func badField(code, field, format string, args ...any) *APIError {
	return sweep.BadField(code, field, format, args...)
}

// specErr translates a registry decode rejection (a *spec.Error whose
// field path is relative to the object being decoded) into the service's
// typed 400, rooted under the given object path ("workload", "strategy").
// Non-registry errors blame the whole object.
func specErr(err error, code, root string) *APIError {
	var se *spec.Error
	if errors.As(err, &se) {
		field := root
		if se.Field != "" {
			field = root + "." + se.Field
		}
		return badField(code, field, "%s", se.Msg)
	}
	return badField(code, root, "%v", err)
}

// InField re-roots a spec builder's error under a parent field path, so
// sweep expansion can report "jobs[3].strategy.kind" rather than
// "strategy.kind".
func InField(err error, parent string) *APIError { return sweep.InField(err, parent) }

// QueueFull builds the 429 shed response.
func QueueFull(retryAfter time.Duration) *APIError { return sweep.QueueFull(retryAfter) }

// WriteError renders a typed error as the JSON error envelope.
func WriteError(w http.ResponseWriter, err *APIError) { sweep.WriteError(w, err) }
