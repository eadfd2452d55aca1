package runner

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/npb"
)

// SwapCoreRun replaces the simulation entry point for the duration of a
// test, so crash-containment tests can inject panics at the exact call
// site a real failure would hit. Tests using it must not run in parallel.
func SwapCoreRun(t *testing.T, fn func(npb.Workload, core.Strategy, core.Config) (core.Result, error)) {
	t.Helper()
	orig := coreRun
	coreRun = func(_ context.Context, w npb.Workload, s core.Strategy, c core.Config) (core.Result, error) {
		return fn(w, s, c)
	}
	t.Cleanup(func() { coreRun = orig })
}

// SetClock replaces r's clock, which times ErrorTTL expiry.
func SetClock(r *Runner, now func() time.Time) { r.now = now }
