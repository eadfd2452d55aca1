package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/dvsclient"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/mpisim"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// layerProbes times calls into each layer's public functions, in this
// process, each call wrapped in a span. Workload-specific per-layer
// metrics (runner and fleet counters, trace overhead) are added by the
// caller.
type layerProbes struct {
	ctx     context.Context
	rec     *recorder
	workers int
	out     map[string]float64
}

func (p *layerProbes) set(name string, v float64) { p.out[name] = v }

// timed runs fn reps times under one span each and returns the median
// duration.
func (p *layerProbes) timed(name string, reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		sp := p.rec.start(ref{}, name)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

func (p *layerProbes) sim() error {
	const events = 1 << 20
	d, err := p.timed("sim.events", 5, func() error {
		k := sim.NewKernel()
		n := 0
		at := sim.Time(0)
		var tick func()
		tick = func() {
			n++
			if n < events {
				at = at.Add(time.Microsecond)
				k.At(at, tick)
			}
		}
		k.At(0, tick)
		return k.Run(sim.MaxTime)
	})
	if err != nil {
		return err
	}
	p.set("sim.event_ns", float64(d)/events)
	d, err = p.timed("sim.proc_switch", 5, func() error {
		k := sim.NewKernel()
		k.Spawn("p", func(pr *sim.Proc) {
			for i := 0; i < events; i++ {
				pr.Sleep(time.Microsecond)
			}
		})
		return k.Run(sim.MaxTime)
	})
	if err != nil {
		return err
	}
	p.set("sim.proc_switch_ns", float64(d)/events)
	return nil
}

// mpisim times a two-rank small-message ping-pong and counts its
// steady-state allocations per round trip (after a warm-up, as the
// alloc-budget test does).
func (p *layerProbes) mpisim() error {
	const warmup, rounds = 64, 1 << 17
	var allocs []float64
	d, err := p.timed("mpisim.pingpong", 5, func() error {
		k := sim.NewKernel()
		nodes := []*node.Node{
			node.MustNew(k, 0, node.DefaultConfig()),
			node.MustNew(k, 1, node.DefaultConfig()),
		}
		w, err := mpisim.NewWorld(k, netsim.MustNew(k, netsim.DefaultConfig(2)), nodes, mpisim.DefaultConfig())
		if err != nil {
			return err
		}
		if err := w.Launch("pingpong", func(r *mpisim.Rank) {
			var m0, m1 runtime.MemStats
			for i := 0; i < warmup+rounds; i++ {
				if i == warmup && r.ID() == 0 {
					runtime.ReadMemStats(&m0)
				}
				if r.ID() == 0 {
					r.Send(1, 0, 64)
					r.Recv(1, 1)
				} else {
					r.Recv(0, 0)
					r.Send(0, 1, 64)
				}
			}
			if r.ID() == 0 {
				runtime.ReadMemStats(&m1)
				allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/rounds)
			}
		}); err != nil {
			return err
		}
		return k.Run(sim.MaxTime)
	})
	if err != nil {
		return err
	}
	p.set("mpisim.pingpong_ns", float64(d)/(warmup+rounds))
	p.set("mpisim.pingpong_allocs", median(allocs))
	return nil
}

// core replays the eight NPB codes at class C under EXTERNAL 600 MHz and
// the cpuspeed 1.2.1 daemon, serially, through core.Run. The four
// guard counts come from the same runs: they depend only on the
// simulated system, so a speed-only change must leave them identical.
func (p *layerProbes) core() error {
	strats := []core.Strategy{core.External(dvs.MHz(600)), core.Daemon(sched.CPUSpeedV121())}
	cfg := core.DefaultConfig()
	const reps = 3
	var hostNS, virtNS float64
	var runs, msgs, netMsgs, transitions, moves int
	var netBytes int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, code := range experiments.NPBCodes {
		w, err := npb.Spec{Code: code, Class: "C"}.Build()
		if err != nil {
			return err
		}
		var perCode []float64
		for rep := 0; rep < reps; rep++ {
			var d time.Duration
			for _, s := range strats {
				sp := p.rec.start(ref{}, "core.run."+code)
				t0 := time.Now()
				r, err := core.Run(w, s, cfg)
				dt := time.Since(t0)
				sp.end()
				if err != nil {
					return fmt.Errorf("core.Run %s: %w", code, err)
				}
				d += dt
				hostNS += float64(dt)
				virtNS += float64(r.Elapsed)
				runs++
				for _, rs := range r.RankStats {
					msgs += rs.Messages
				}
				netMsgs += r.Net.Messages
				netBytes += r.Net.Bytes
				transitions += r.Transitions
				moves += r.DaemonMoves
			}
			perCode = append(perCode, float64(d)/float64(len(strats))/1e6)
		}
		p.set("core.run_ms."+code, median(perCode))
	}
	runtime.ReadMemStats(&m1)
	p.set("core.allocs_per_run", float64(m1.Mallocs-m0.Mallocs)/float64(runs))
	p.set("core.alloc_kb_per_run", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(runs))
	p.set("core.host_ns_per_msg", hostNS/float64(netMsgs))
	p.set("core.virt_s_per_host_s", virtNS/hostNS)
	p.set("mpisim.msgs_per_run", float64(msgs)/float64(runs))
	p.set("netsim.bytes_per_run", float64(netBytes)/float64(runs))
	p.set("node.transitions_per_run", float64(transitions)/float64(runs))
	p.set("sched.daemon_moves_per_run", float64(moves)/float64(runs))
	return nil
}

// experiments replays reproduce's heavy artifacts in its order on one
// shared engine with nproc workers, as `reproduce -only all` does, and
// returns that engine's counters.
func (p *layerProbes) experiments() (runner.Stats, error) {
	o := experiments.Default()
	o.Runner = runner.New(p.workers)
	var ps *experiments.ProfileSet
	steps := []struct {
		id string
		fn func() error
	}{
		{"f2", func() error { _, err := experiments.Figure2(o); return err }},
		{"t2", func() (err error) { ps, err = experiments.BuildProfiles(o); return err }},
		{"", func() error {
			// Figures 6–8 read the profile set; they simulate nothing new
			// but keep the engine's counters equal to reproduce's.
			for _, m := range []metrics.Metric{metrics.ED3P, metrics.ED2P} {
				if _, err := ps.SelectExternal(m); err != nil {
					return err
				}
			}
			ps.Figure8()
			return nil
		}},
		{"f9", func() error { _, err := experiments.Figure9(o); return err }},
		{"f11", func() error { _, err := experiments.Figure11(o); return err }},
		{"f12", func() error { _, err := experiments.Figure12(o); return err }},
		{"f14", func() error { _, err := experiments.Figure14(o); return err }},
		{"a2", func() error {
			for _, code := range experiments.NPBCodes {
				if _, _, err := experiments.AblationCPUSpeed(o, code); err != nil {
					return err
				}
			}
			return nil
		}},
		{"a3", func() error {
			_, _, err := experiments.AblationTransitionCost(o, []time.Duration{
				10 * time.Microsecond, 30 * time.Microsecond, 100 * time.Microsecond,
				time.Millisecond, 10 * time.Millisecond,
			})
			return err
		}},
		{"x1", func() error { _, _, err := experiments.X1AutoSchedule(o); return err }},
		{"x2", func() error { _, _, err := experiments.X2PredictiveDaemon(o, experiments.NPBCodes); return err }},
		{"x3", func() error { _, _, err := experiments.X3DiskSlack(o); return err }},
		{"x4", func() error { _, _, err := experiments.X4Opteron(o, experiments.NPBCodes); return err }},
		{"x5", func() error { _, _, err := experiments.X5Scaling(o, []int{2, 4, 8, 16}); return err }},
		{"x6", func() error { _, _, err := experiments.X6Reliability(o); return err }},
		{"x7", func() error { _, _, err := experiments.X7PowerCap(o, []float64{0.9, 0.8, 0.7, 0.6}); return err }},
	}
	for _, s := range steps {
		if p.ctx.Err() != nil {
			return runner.Stats{}, p.ctx.Err()
		}
		name := "experiments." + s.id
		if s.id == "" {
			name = "experiments.f6-f8"
		}
		d, err := p.timed(name, 1, s.fn)
		if err != nil {
			return runner.Stats{}, err
		}
		if s.id != "" {
			p.set("experiments."+s.id+"_ms", float64(d)/1e6)
		}
	}
	return o.Runner.Stats(), nil
}

// runnerHit times a memo-cache hit through Runner.Do.
func (p *layerProbes) runnerHit() error {
	c, err := warmSpec(warmIndex(2, 1, 0)).Cell() // EP, EXTERNAL 600: the cheapest cell
	if err != nil {
		return err
	}
	r := runner.New(1)
	if o := r.Do(p.ctx, c.Job); o.Err != nil {
		return o.Err
	}
	const n = 4096
	d, err := p.timed("runner.hit", 5, func() error {
		for i := 0; i < n; i++ {
			if o := r.Do(p.ctx, c.Job); !o.Cached {
				return fmt.Errorf("runner.Do missed a cached job")
			}
		}
		return nil
	})
	p.set("runner.hit_us", float64(d)/n/1e3)
	return err
}

// codec times the NDJSON sweep codec and the server's sweep planner on
// the warm set's records and a sweep-mixed grid.
func (p *layerProbes) codec() error {
	c, err := warmSpec(warmIndex(3, 5, 0)).Cell() // FT under the daemon
	if err != nil {
		return err
	}
	res, err := core.Run(c.Job.Workload, c.Job.Strategy, c.Job.Config)
	if err != nil {
		return err
	}
	rj := sweep.ToResultJSON(res)
	const n = 4096
	var buf bytes.Buffer
	d, err := p.timed("sweep.encode", 5, func() error {
		buf.Reset()
		enc := sweep.NewEncoder(&buf)
		for i := 0; i < n; i++ {
			enc.Record(sweep.SweepRecord{Index: i, Cached: i%2 == 0, Result: &rj})
		}
		enc.Trailer(n)
		return nil
	})
	if err != nil {
		return err
	}
	p.set("sweep.encode_ns_per_record", float64(d)/n)
	p.set("sweep.bytes_per_record", float64(buf.Len())/n)
	d, err = p.timed("sweep.decode", 5, func() error {
		recs, tr, err := sweep.DecodeStream(bytes.NewReader(buf.Bytes()))
		if err == nil && (tr == nil || len(recs) != n) {
			err = fmt.Errorf("decoded %d records, want %d", len(recs), n)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.set("sweep.decode_ns_per_record", float64(d)/n)

	cells := mixedGrid(0, 0)
	req := server.SweepRequest{}
	for _, gc := range cells {
		req.Jobs = append(req.Jobs, gc.spec)
	}
	const plans = 64
	d, err = p.timed("server.plan", 5, func() error {
		for i := 0; i < plans; i++ {
			if _, err := req.Plan(4096); err != nil {
				return err
			}
		}
		return nil
	})
	p.set("server.plan_us_per_cell", float64(d)/plans/float64(len(cells))/1e3)
	return err
}

// handler times a cached /simulate through dvsd's handler in this
// process, then over loopback to a live backend and to the gateway.
func (p *layerProbes) handler(f *fleet, g *golden) error {
	i := warmIndex(2, 1, 0)
	body := warmBodies()[i]
	srv := server.New(server.Options{Runner: runner.New(p.workers)})
	h := srv.Handler()
	call := func() error {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/simulate", bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			return fmt.Errorf("handler: status %d", rr.Code)
		}
		return nil
	}
	if err := call(); err != nil {
		return err
	}
	const n = 2048
	d, err := p.timed("server.handler", 5, func() error {
		for j := 0; j < n; j++ {
			if err := call(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("server.handler_us", float64(d)/n/1e3)

	hc := &http.Client{Transport: loopbackTransport(1)}
	defer hc.CloseIdleConnections()
	loop := func(name, url string) (float64, error) {
		do := func() error {
			r := dvsclient.Do(p.ctx, hc, url, body, "")
			if !r.Ok {
				return fmt.Errorf("%s: dvsclient.Do failed", name)
			}
			b, _ := json.Marshal(r.Resp.Result)
			if digest(b) != g.warm(i) {
				return fmt.Errorf("%s: result digest mismatch", name)
			}
			return nil
		}
		if err := do(); err != nil {
			return 0, err
		}
		const n = 512
		d, err := p.timed(name, 5, func() error {
			for j := 0; j < n; j++ {
				if err := do(); err != nil {
					return err
				}
			}
			return nil
		})
		return float64(d) / n / 1e3, err
	}
	srvUS, err := loop("server.loopback", f.backends[0].url)
	if err != nil {
		return err
	}
	gwUS, err := loop("fleet.loopback", f.gw.url)
	if err != nil {
		return err
	}
	p.set("server.loopback_us", srvUS)
	p.set("fleet.loopback_us", gwUS)
	p.set("fleet.hop_us", gwUS-srvUS)
	return nil
}

// serviceDeltas turns two scrapes of the fleet, bracketing a traced
// phase, into the runner, server and fleet counters of that phase.
func serviceDeltas(before, after series, set func(string, float64)) {
	d := func(metric string, labels ...string) float64 {
		return after.sum(metric, labels...) - before.sum(metric, labels...)
	}
	runs, hits := d("dvsd_runner_runs_total"), d("dvsd_runner_cache_hits_total")
	set("runner.runs", runs)
	set("runner.hits", hits)
	set("runner.hit_ratio", ratio(hits, runs+hits))
	set("runner.evictions", d("dvsd_runner_cache_evictions_total"))
	set("server.request_ms_mean", 1e3*ratio(d("dvsd_request_seconds_sum", `path="/simulate"`), d("dvsd_request_seconds_count", `path="/simulate"`)))
	set("server.shed", d("dvsd_requests_total", `status="429"`))
	set("fleet.backend_cell_ms_mean", 1e3*ratio(d("dvsgw_backend_cell_seconds_sum"), d("dvsgw_backend_cell_seconds_count")))
	set("fleet.retried", d("dvsgw_requests_retried_total"))
	set("fleet.hedged", d("dvsgw_hedged_requests_total"))
	set("fleet.local", d("dvsgw_local_fallback_cells_total"))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
