// Sweep placement: every experiment's job grid executes through the
// shared sweep pipeline (internal/sweep), so reproduce gets the same
// plan → place → execute semantics as dvsd and dvsgw — including remote
// placement onto a dvsd (-server) and checkpoint/resume (-checkpoint).
package experiments

import (
	"context"
	"encoding/json"
	"sync/atomic"

	"repro/internal/dvsclient"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sweep"
)

// SweepStats accumulates out-of-band bookkeeping across an Options'
// sweeps. The counters are updated between sweeps, not concurrently —
// read them after the experiment calls return.
type SweepStats struct {
	Jobs    int // cells submitted across all sweeps
	Cached  int // cells served from a memo cache (local or backend)
	Resumed int // cells replayed from a checkpoint journal
	Remote  int // cells served by the remote server (-server mode)
}

// sweep executes jobs through the sweep pipeline and returns outcomes in
// submission order, runner-shaped so profile plans assemble unchanged.
// With Server set, wire-expressible cells are placed remotely (falling
// back to the local engine on placement failure); with CheckpointDir
// set, completed cells journal to disk and an interrupted reproduction
// resumes where it stopped.
func (o Options) sweep(jobs []runner.Job) []runner.Outcome {
	eng := o.engine()
	cells := sweep.JobCells(jobs)
	if o.Server != "" {
		for i := range cells {
			if spec, ok := server.JobSpecFor(cells[i].Job); ok {
				if body, err := json.Marshal(spec); err == nil {
					cells[i].Body = body
				}
			}
		}
	}
	plan := sweep.NewPlan(cells)

	local := sweep.Local{Runner: eng}
	var pl sweep.Placer = local
	var sp *serverPlacer
	if o.Server != "" {
		sp = &serverPlacer{
			remote: dvsclient.Placer{BaseURL: o.Server},
			local:  local,
		}
		pl = sp
	}

	var ckpt *sweep.Checkpoint
	if o.CheckpointDir != "" {
		// Best-effort: an unopenable journal (permissions, torn header)
		// degrades to an uncheckpointed sweep, never a failed one.
		ckpt, _ = sweep.OpenCheckpoint(sweep.CheckpointPath(o.CheckpointDir, plan), plan)
	}

	souts, sum := sweep.Execute(context.Background(), plan, pl, sweep.ExecOptions{
		Parallel:   eng.Workers(),
		Checkpoint: ckpt,
	})
	if o.Stats != nil {
		o.Stats.Jobs += sum.Jobs
		o.Stats.Cached += sum.Cached
		o.Stats.Resumed += sum.Resumed
		if sp != nil {
			o.Stats.Remote += int(sp.served.Load())
		}
	}
	outs := make([]runner.Outcome, len(souts))
	for i, so := range souts {
		outs[i] = so.ToRunner()
	}
	return outs
}

// localOnly returns a copy of the options with remote placement off, for
// experiments that need full-fidelity results (per-node thermal series)
// the summary wire form does not carry.
func (o Options) localOnly() Options {
	o.Server = ""
	return o
}

// serverPlacer places wire-expressible cells on one remote dvsd and
// everything else — bodiless cells and remote placement failures — on
// the local engine, so a flaky or half-capable server degrades a
// reproduction rather than failing it.
type serverPlacer struct {
	remote dvsclient.Placer
	local  sweep.Local
	served atomic.Int64 // cells the remote actually answered
}

func (p *serverPlacer) Place(ctx context.Context, i int, c sweep.Cell) sweep.Outcome {
	if c.Body == nil {
		return p.local.Place(ctx, i, c)
	}
	out := p.remote.Place(ctx, i, c)
	if out.Err != nil && ctx.Err() == nil {
		return p.local.Place(ctx, i, c)
	}
	if out.Err == nil {
		p.served.Add(1)
	}
	return out
}
