package server

import (
	"repro/internal/core"
	"repro/internal/sweep"
)

// The wire result and NDJSON stream shapes live in internal/sweep (the
// one encode/decode pair for dvsd, dvsgw, and every client). These
// aliases keep internal/server's surface stable.
type (
	// ResultJSON is the wire form of one simulation's measurements.
	ResultJSON = sweep.ResultJSON
	// SimulateResponse is the POST /simulate success body.
	SimulateResponse = sweep.SimulateResponse
	// SweepRecord is one NDJSON line of a POST /sweep stream.
	SweepRecord = sweep.SweepRecord
	// SweepTrailer is the final NDJSON line of a sweep stream.
	SweepTrailer = sweep.SweepTrailer
)

// statusClientClosed is nginx's 499: the client went away.
const statusClientClosed = sweep.StatusClientClosed

// ToResultJSON projects a result onto its wire form.
func ToResultJSON(r core.Result) ResultJSON { return sweep.ToResultJSON(r) }

// OutcomeError maps a job outcome's failure to a typed error.
func OutcomeError(err error) *APIError { return sweep.OutcomeError(err) }
