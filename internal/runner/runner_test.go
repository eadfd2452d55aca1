package runner_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sweep"
)

// The runner executes one job at a time; these tests drive multi-job
// grids through the one sweep driver, sweep.Execute over a sweep.Local
// placer, exactly as reproduce and dvsd do.

func quickCfg() core.Config { return core.DefaultConfig() }

// execute runs jobs through sweep.Execute on r at r's parallelism and
// returns runner-shaped outcomes in submission order.
func execute(ctx context.Context, r *runner.Runner, jobs []runner.Job) []runner.Outcome {
	souts, _ := sweep.Execute(ctx, sweep.NewPlan(sweep.JobCells(jobs)), sweep.Local{Runner: r},
		sweep.ExecOptions{Parallel: r.Workers()})
	outs := make([]runner.Outcome, len(souts))
	for i, o := range souts {
		outs[i] = o.ToRunner()
	}
	return outs
}

func ftS(t testing.TB) npb.Workload {
	t.Helper()
	w, err := npb.FT(npb.ClassS, 2)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestKeyDistinguishesInputs(t *testing.T) {
	w := ftS(t)
	cfg := quickCfg()
	base := runner.Job{Workload: w, Strategy: core.NoDVS(), Config: cfg}
	k0, ok := base.Key()
	if !ok || k0 == "" {
		t.Fatal("base job should be cacheable")
	}
	altCfg := cfg
	altCfg.Node.Transition.Latency = 5 * time.Millisecond
	w4, err := npb.FT(npb.ClassS, 4)
	if err != nil {
		t.Fatal(err)
	}
	variants := []runner.Job{
		{Workload: w, Strategy: core.External(600), Config: cfg},
		{Workload: w, Strategy: core.Daemon(sched.CPUSpeedV11()), Config: cfg},
		{Workload: w, Strategy: core.Daemon(sched.CPUSpeedV121()), Config: cfg},
		{Workload: w4, Strategy: core.NoDVS(), Config: cfg},
		{Workload: w, Strategy: core.NoDVS(), Config: altCfg},
	}
	seen := map[string]int{k0: -1}
	for i, j := range variants {
		k, ok := j.Key()
		if !ok {
			t.Fatalf("variant %d should be cacheable", i)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("variant %d collides with %d", i, prev)
		}
		seen[k] = i
	}
}

func TestKeyDistinguishesInternalParams(t *testing.T) {
	a, err := npb.FTInternal(npb.ClassS, 2, 1400, 600)
	if err != nil {
		t.Fatal(err)
	}
	b, err := npb.FTInternal(npb.ClassS, 2, 1200, 800)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	ka, oka := runner.Job{Workload: a, Strategy: core.NoDVS(), Config: cfg}.Key()
	kb, okb := runner.Job{Workload: b, Strategy: core.NoDVS(), Config: cfg}.Key()
	if !oka || !okb {
		t.Fatal("internal variants with declared params should be cacheable")
	}
	if ka == kb {
		t.Fatal("different internal frequencies must not share a key")
	}
}

func TestKeyRefusesIncompleteIdentity(t *testing.T) {
	w := npb.Workload{Code: "SYNTH", Class: npb.ClassC, Ranks: 2, Variant: "custom",
		Body: func(r *mpisim.Rank) { r.Compute(1); r.Barrier() }}
	if _, ok := (runner.Job{Workload: w, Strategy: core.NoDVS(), Config: quickCfg()}).Key(); ok {
		t.Fatal("synthetic workload without declared params must be uncacheable")
	}
}

// TestSweepMatchesSerial proves the determinism guarantee at the Result
// level: a parallel sweep over the runner returns exactly what per-job
// serial execution returns, in submission order.
func TestSweepMatchesSerial(t *testing.T) {
	w := ftS(t)
	cfg := quickCfg()
	var jobs []runner.Job
	for _, f := range cfg.Node.Table.Frequencies() {
		jobs = append(jobs, runner.Job{Workload: w, Strategy: core.External(f), Config: cfg})
	}
	jobs = append(jobs, runner.Job{Workload: w, Strategy: core.NoDVS(), Config: cfg})

	serial := make([]core.Result, len(jobs))
	for i, j := range jobs {
		r, err := core.Run(j.Workload, j.Strategy, j.Config)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	for _, workers := range []int{1, 2, 8} {
		outs := execute(context.Background(), runner.New(workers), jobs)
		if err := runner.FirstErr(outs); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range outs {
			if !reflect.DeepEqual(outs[i].Result, serial[i]) {
				t.Fatalf("workers=%d: job %d result differs from serial run", workers, i)
			}
		}
	}
}

// TestRepeatedCellSimulatesOnce asserts the memo cache: a duplicated grid
// cell — within one sweep and across sweeps — runs exactly one simulation.
func TestRepeatedCellSimulatesOnce(t *testing.T) {
	w := ftS(t)
	cfg := quickCfg()
	job := runner.Job{Workload: w, Strategy: core.External(600), Config: cfg}
	r := runner.New(4)
	outs := execute(context.Background(), r, []runner.Job{job, job, job, job})
	if err := runner.FirstErr(outs); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Runs != 1 || st.Hits != 3 {
		t.Fatalf("after one sweep of 4 identical jobs: runs=%d hits=%d, want 1/3", st.Runs, st.Hits)
	}
	if out := r.Do(context.Background(), job); out.Err != nil {
		t.Fatal(out.Err)
	}
	if st := r.Stats(); st.Runs != 1 || st.Hits != 4 {
		t.Fatalf("after repeat call: runs=%d hits=%d, want 1/4", st.Runs, st.Hits)
	}
	for i := range outs {
		if !reflect.DeepEqual(outs[i].Result, outs[0].Result) {
			t.Fatalf("coalesced outcome %d differs", i)
		}
	}
}

// TestBuildProfileMatchesCore pins the pipeline's profile assembly —
// PlanProfile's jobs through sweep.Execute, then Assemble — to the serial
// reference implementation in core.
func TestBuildProfileMatchesCore(t *testing.T) {
	w := ftS(t)
	cfg := quickCfg()
	daemon := sched.CPUSpeedV121()
	want, err := core.BuildProfile(w, cfg, daemon)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := runner.PlanProfile(w, cfg, daemon)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := plan.Assemble(execute(context.Background(), runner.New(workers), plan.Jobs()))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: profile differs from core.BuildProfile", workers)
		}
	}
}

// TestBuildProfilesFlattensAcrossWorkloads concatenates several plans'
// jobs into one flat sweep, as experiments.BuildProfiles does, and hands
// each plan its slice of the outcomes back.
func TestBuildProfilesFlattensAcrossWorkloads(t *testing.T) {
	cfg := quickCfg()
	daemon := sched.CPUSpeedV121()
	var ws []npb.Workload
	var plans []*runner.ProfilePlan
	var jobs []runner.Job
	for _, code := range []string{"EP", "FT"} {
		w, err := npb.New(code, npb.ClassS, 2)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := runner.PlanProfile(w, cfg, daemon)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
		plans = append(plans, plan)
		jobs = append(jobs, plan.Jobs()...)
	}
	r := runner.New(8)
	outs := execute(context.Background(), r, jobs)
	var profs []core.Profile
	for _, plan := range plans {
		n := len(plan.Jobs())
		prof, err := plan.Assemble(outs[:n])
		if err != nil {
			t.Fatal(err)
		}
		profs = append(profs, prof)
		outs = outs[n:]
	}
	if len(profs) != 2 || profs[0].Workload != ws[0].Name() || profs[1].Workload != ws[1].Name() {
		t.Fatalf("profiles out of order: %+v", profs)
	}
	// 2 codes x (5 static + auto) distinct cells.
	if st := r.Stats(); st.Runs != 12 {
		t.Fatalf("runs=%d, want 12", st.Runs)
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	w := ftS(t)
	bad := quickCfg()
	bad.Node.Table = nil // core.Run must reject this
	outs := execute(context.Background(), runner.New(2), []runner.Job{
		{Workload: w, Strategy: core.NoDVS(), Config: quickCfg()},
		{Workload: w, Strategy: core.NoDVS(), Config: bad},
	})
	if outs[0].Err != nil {
		t.Fatalf("good job failed: %v", outs[0].Err)
	}
	if outs[1].Err == nil {
		t.Fatal("bad job should fail")
	}
	if runner.FirstErr(outs) != outs[1].Err {
		t.Fatal("FirstErr should surface the bad job's error")
	}
}

func TestSweepManyMoreJobsThanWorkers(t *testing.T) {
	w := ftS(t)
	cfg := quickCfg()
	freqs := cfg.Node.Table.Frequencies()
	var jobs []runner.Job
	for i := 0; i < 40; i++ {
		jobs = append(jobs, runner.Job{Workload: w, Strategy: core.External(freqs[i%len(freqs)]), Config: cfg})
	}
	r := runner.New(3)
	outs := execute(context.Background(), r, jobs)
	if err := runner.FirstErr(outs); err != nil {
		t.Fatal(err)
	}
	// 40 jobs over 5 distinct cells: exactly 5 simulations.
	if st := r.Stats(); st.Runs != len(freqs) || st.Runs+st.Hits != len(jobs) {
		t.Fatalf("runs=%d hits=%d, want %d distinct and %d total", st.Runs, st.Hits, len(freqs), len(jobs))
	}
	for i, out := range outs {
		if out.Result.Strategy != jobs[i].Strategy.String() {
			t.Fatalf("job %d: outcome misaligned (%s vs %s)", i, out.Result.Strategy, jobs[i].Strategy)
		}
	}
}

// TestCancelledUpfront asserts that a sweep submitted with an
// already-cancelled context runs zero simulations: every outcome resolves
// to ctx.Err() and neither cache nor stats are touched.
func TestCancelledUpfront(t *testing.T) {
	w := ftS(t)
	cfg := quickCfg()
	var jobs []runner.Job
	for _, f := range cfg.Node.Table.Frequencies() {
		jobs = append(jobs, runner.Job{Workload: w, Strategy: core.External(f), Config: cfg})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := runner.New(4)
	outs := execute(ctx, r, jobs)
	if len(outs) != len(jobs) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(jobs))
	}
	for i, o := range outs {
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("job %d: err=%v, want context.Canceled", i, o.Err)
		}
	}
	if st := r.Stats(); st.Runs != 0 || st.Hits != 0 {
		t.Fatalf("cancelled sweep touched the engine: runs=%d hits=%d", st.Runs, st.Hits)
	}
}

// TestCancelMidSweep cancels from the stream observer after the first
// completed job of a serial sweep and asserts the remaining queued jobs
// are skipped, not run.
func TestCancelMidSweep(t *testing.T) {
	w := ftS(t)
	cfg := quickCfg()
	var jobs []runner.Job
	for _, f := range cfg.Node.Table.Frequencies() {
		jobs = append(jobs, runner.Job{Workload: w, Strategy: core.External(f), Config: cfg})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := runner.New(1) // serial: deterministic completion order
	outs, _ := sweep.Execute(ctx, sweep.NewPlan(sweep.JobCells(jobs)), sweep.Local{Runner: r},
		sweep.ExecOptions{Parallel: 1, OnRecord: func(rec sweep.SweepRecord) {
			if rec.Index == 0 {
				cancel()
			}
		}})
	if outs[0].Err != nil {
		t.Fatalf("job 0 should have completed before cancel: %v", outs[0].Err)
	}
	for i := 1; i < len(outs); i++ {
		if !errors.Is(outs[i].RawErr, context.Canceled) {
			t.Fatalf("job %d: err=%v, want context.Canceled", i, outs[i].Err)
		}
	}
	if st := r.Stats(); st.Runs != 1 {
		t.Fatalf("runs=%d, want 1 (only the pre-cancel job)", st.Runs)
	}
}

// TestObserverSeesEveryJobOnce asserts the streaming observer contract
// over a real runner: one serialized call per job, with the record of the
// outcome that lands at that job's submission index.
func TestObserverSeesEveryJobOnce(t *testing.T) {
	w := ftS(t)
	cfg := quickCfg()
	var jobs []runner.Job
	for _, f := range cfg.Node.Table.Frequencies() {
		jobs = append(jobs, runner.Job{Workload: w, Strategy: core.External(f), Config: cfg})
	}
	seen := make([]int, len(jobs))
	got := make([]sweep.SweepRecord, len(jobs))
	outs, _ := sweep.Execute(context.Background(), sweep.NewPlan(sweep.JobCells(jobs)),
		sweep.Local{Runner: runner.New(4)}, sweep.ExecOptions{Parallel: 4, OnRecord: func(rec sweep.SweepRecord) {
			seen[rec.Index]++ // serialized by Execute: no lock needed
			got[rec.Index] = rec
		}})
	for i := range jobs {
		if seen[i] != 1 {
			t.Fatalf("job %d observed %d times, want 1", i, seen[i])
		}
		if !reflect.DeepEqual(got[i], outs[i].Record(i)) {
			t.Fatalf("job %d: observed record differs from returned outcome", i)
		}
		if outs[i].Err != nil {
			t.Fatal(outs[i].Err)
		}
	}
}

// TestRunContextCancelledWaiterLeavesCacheIntact starts one simulation,
// then cancels a second identical request while it would coalesce; the
// cache entry must stay usable for later callers.
func TestRunContextCancelledWaiterLeavesCacheIntact(t *testing.T) {
	w := ftS(t)
	cfg := quickCfg()
	job := runner.Job{Workload: w, Strategy: core.External(600), Config: cfg}
	r := runner.New(2)
	if out := r.Do(context.Background(), job); out.Err != nil {
		t.Fatal(out.Err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out := r.Do(ctx, job); !errors.Is(out.Err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", out.Err)
	}
	if out := r.Do(context.Background(), job); out.Err != nil {
		t.Fatal(out.Err)
	}
	if st := r.Stats(); st.Runs != 1 || st.Hits != 1 {
		t.Fatalf("runs=%d hits=%d, want 1/1 (cancelled waiter counts as neither)", st.Runs, st.Hits)
	}
}

// TestPropertySweepWorkersInvariance: sweep output is a function of the
// job list alone, not of -workers — the determinism guarantee the
// service and fleet layers inherit. Random seeded cells across the full
// workload/strategy registries, with duplicates mixed in so coalescing
// and cache hits are under test too; results must match a serial sweep
// exactly at every parallelism.
func TestPropertySweepWorkersInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	codes := npb.Codes()
	regs := core.Strategies()
	cfg := quickCfg()
	var jobs []runner.Job
	for len(jobs) < 14 {
		w, err := npb.New(codes[rng.Intn(len(codes))], npb.ClassS, []int{1, 2, 4}[rng.Intn(3)])
		if err != nil {
			continue // some kernels constrain rank counts; redraw
		}
		jobs = append(jobs, runner.Job{Workload: w, Strategy: regs[rng.Intn(len(regs))].Example(), Config: cfg})
	}
	jobs = append(jobs, jobs[rng.Intn(len(jobs))], jobs[rng.Intn(len(jobs))])

	ref := execute(context.Background(), runner.New(1), jobs)
	for _, workers := range []int{2, 8} {
		outs := execute(context.Background(), runner.New(workers), jobs)
		for i := range outs {
			if (outs[i].Err == nil) != (ref[i].Err == nil) {
				t.Fatalf("workers=%d job %d: err %v vs serial %v", workers, i, outs[i].Err, ref[i].Err)
			}
			if outs[i].Err != nil {
				continue
			}
			a, b := outs[i].Result, ref[i].Result
			if a.Name != b.Name || a.Strategy != b.Strategy || a.Elapsed != b.Elapsed || a.Energy != b.Energy {
				t.Errorf("workers=%d job %d (%s/%s): diverged from serial: elapsed %v vs %v, energy %v vs %v",
					workers, i, a.Name, a.Strategy, a.Elapsed, b.Elapsed, a.Energy, b.Energy)
			}
		}
	}
}
