// Cell-level execution path: the unit of work the fleet gateway routes,
// retries, and fails over is one sweep cell, carried in both its wire
// form (a /simulate body it can forward to any backend) and its compiled
// form (a runner.Job it can execute locally as the last-resort fallback).
package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/runner"
	"repro/internal/sweep"
)

// Cell is one sweep cell in both representations, plus the content
// address the runner's memo cache files it under. The key doubles as the
// fleet router's affinity token: hashing it onto a backend ring sends a
// repeated cell to the backend whose cache already holds it.
type Cell struct {
	// Spec is the wire form — a valid POST /simulate body.
	Spec JobSpec
	// Job is the compiled form, runnable in-process.
	Job runner.Job
	// Key is the runner's content address, "" when the cell is not
	// cacheable (then no backend holds it warm and any placement is as
	// good as any other).
	Key string
}

func newCell(spec JobSpec, job runner.Job) Cell {
	key, _ := job.Key()
	return Cell{Spec: spec, Job: job, Key: key}
}

// Cell compiles one job spec into its routable form.
func (s JobSpec) Cell() (Cell, error) {
	job, err := s.build()
	if err != nil {
		return Cell{}, err
	}
	return newCell(s, job), nil
}

// Cells expands the request into per-cell specs with the same validation,
// field-path reporting, and cell ordering as the in-process sweep path:
// grid form is workload-major, cell (i, j) at index i*len(strategies)+j.
func (s SweepRequest) Cells(maxJobs int) ([]Cell, error) {
	explicit := len(s.Jobs) > 0
	grid := len(s.Workloads) > 0 || len(s.Strategies) > 0
	switch {
	case explicit && grid:
		return nil, badField(CodeInvalidSweep, "jobs",
			"give either jobs or workloads×strategies, not both")
	case explicit:
		if s.Config != nil {
			return nil, badField(CodeInvalidSweep, "config",
				"top-level config applies only to the grid form; set it per job")
		}
		if len(s.Jobs) > maxJobs {
			return nil, sweep.TooManyJobs("jobs",
				"%d jobs exceeds the per-request bound of %d", len(s.Jobs), maxJobs)
		}
		cells := make([]Cell, len(s.Jobs))
		for i, js := range s.Jobs {
			c, err := js.Cell()
			if err != nil {
				return nil, InField(err, fmt.Sprintf("jobs[%d]", i))
			}
			cells[i] = c
		}
		return cells, nil
	case len(s.Workloads) > 0 && len(s.Strategies) > 0:
		n := len(s.Workloads) * len(s.Strategies)
		if n > maxJobs {
			return nil, sweep.TooManyJobs("workloads",
				"%d×%d grid = %d jobs exceeds the per-request bound of %d",
				len(s.Workloads), len(s.Strategies), n, maxJobs)
		}
		cfg, err := s.Config.build()
		if err != nil {
			return nil, err
		}
		cells := make([]Cell, 0, n)
		for i, ws := range s.Workloads {
			w, err := ws.build()
			if err != nil {
				return nil, InField(err, fmt.Sprintf("workloads[%d]", i))
			}
			for j, ss := range s.Strategies {
				strat, err := ss.build(cfg.Node.Table)
				if err != nil {
					return nil, InField(err, fmt.Sprintf("strategies[%d]", j))
				}
				cells = append(cells, newCell(
					JobSpec{Workload: ws, Strategy: ss, Config: s.Config},
					runner.Job{Workload: w, Strategy: strat, Config: cfg}))
			}
		}
		return cells, nil
	}
	return nil, badField(CodeInvalidSweep, "jobs",
		"empty sweep: give jobs, or workloads and strategies")
}

// Plan expands the request into the sweep pipeline's executable form:
// the single validated cell list (same ordering and field-path reporting
// as Cells) with each cell carrying its content key, compiled job, and
// pre-marshaled wire body. This is THE expansion path — dvsd, dvsgw, and
// any embedder execute exactly this plan.
func (s SweepRequest) Plan(maxJobs int) (*sweep.Plan, error) {
	cells, err := s.Cells(maxJobs)
	if err != nil {
		return nil, err
	}
	scs := make([]sweep.Cell, len(cells))
	for i, c := range cells {
		sc, err := c.Wire()
		if err != nil {
			return nil, InField(err, fmt.Sprintf("jobs[%d]", i))
		}
		scs[i] = sc
	}
	return sweep.NewPlan(scs), nil
}

// Wire converts the cell into the sweep pipeline's placeable form,
// marshaling the spec into the forwardable POST /simulate body.
func (c Cell) Wire() (sweep.Cell, error) {
	body, err := json.Marshal(c.Spec)
	if err != nil { // cells are built from decoded JSON; cannot recur
		return sweep.Cell{}, Errf(http.StatusInternalServerError, CodeSimFailed, "",
			"encode cell: %v", err)
	}
	return sweep.Cell{Key: c.Key, Job: c.Job, Body: body}, nil
}
