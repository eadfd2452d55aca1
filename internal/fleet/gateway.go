// Package fleet is the scale-out layer over dvsd: a backend ring, a
// health-checked pool, and a degradation ladder that places a sweep's
// cells across dvsd backends. The ladder is a sweep.Placer; server.Server
// serves it, so dvsgw answers on exactly dvsd's HTTP front (admission,
// validation, NDJSON streaming, checkpointing) and only placement
// differs. Gateway ties the two together and runs the health probes.
//
// The unit of distribution is one sweep cell, forwarded as an ordinary
// POST /simulate body — the cell-level wire contract — so any dvsd
// instance is a valid backend with no fleet-specific endpoint. Placement
// is a consistent hash of the cell's content-addressed cache key onto
// the backend ring: a repeated cell lands on the backend whose memo
// cache (LRU and persistent snapshot alike) already holds it, so the
// fleet's aggregate hit rate approaches a single warm node's instead of
// decaying with 1/N random placement.
//
// Failure handling is a degradation ladder, each rung preserving the
// client contract of the rung above:
//
//  1. route   — the cell's home backend on the ring
//  2. retry   — bounded attempts with exponential backoff + jitter,
//     failing over along the ring; backend 429s are treated
//     as backpressure (wait, don't burn an attempt)
//  3. hedge   — optionally, a duplicate request to the next backend
//     when the home one is a straggler; first answer wins
//  4. local   — in-process execution on the gateway's own runner, so a
//     gateway with zero live backends degrades to exactly
//     today's single-node dvsd behaviour instead of failing
//
// Liveness is probed (GET /healthz per backend on an interval) with
// ejection after consecutive failures and re-admission on the next
// successful probe; data-path failures feed the same counter so a
// backend that dies mid-sweep is ejected by the cells it broke.
package fleet

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repro/internal/dvsclient"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sweep"
)

// Options configures a Gateway.
type Options struct {
	// Server configures the HTTP front the gateway is served by:
	// admission, timeouts, sweep bounds, tracing and checkpointing, as
	// for dvsd. Its Runner runs the ladder's local fallback (nil builds a
	// default one). Fanout, the cells of one sweep in flight at once,
	// defaults to 16 rather than the local core count: the backends do
	// the work. New sets Placer.
	Server server.Options
	// Peers are the backend base URLs (e.g. "http://10.0.0.7:8377").
	// Membership is fixed for the gateway's lifetime; liveness within the
	// set is probed.
	Peers []string
	// Client issues backend requests; nil builds one with a transport
	// sized for per-cell fan-out.
	Client *http.Client

	// MaxAttempts bounds forwarding attempts per cell (first try
	// included). Default 3.
	MaxAttempts int
	// Backoff is the base retry delay; attempt n waits Backoff·2ⁿ⁻¹ plus
	// up to 50% jitter. Default 50ms.
	Backoff time.Duration
	// MaxBackoff caps the doubled retry delay. Default 5s. Fault-injection
	// tests shrink it so retry storms resolve in milliseconds.
	MaxBackoff time.Duration
	// HedgeAfter launches a duplicate request to the next backend on the
	// ring when the home backend hasn't answered within this delay; the
	// first answer wins. 0 disables hedging.
	HedgeAfter time.Duration
	// ShedBudget caps the cumulative time one cell may spend waiting out
	// backend 429 backpressure. Once spent, further sheds are charged to
	// the attempt budget, so a permanently saturated backend degrades to
	// local fallback instead of the cell waiting forever (or until a
	// request deadline that may not exist). Default 30s.
	ShedBudget time.Duration

	// ProbeInterval is the health-check period (default 2s); ProbeTimeout
	// bounds one probe (default 1s); FailAfter is the consecutive-failure
	// count that ejects a backend (default 2).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailAfter     int
}

// replicas is the virtual-node count per backend on the hash ring.
const replicas = 64

func (o Options) withDefaults() Options {
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        128,
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if o.Server.Fanout <= 0 {
		o.Server.Fanout = 16
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.ShedBudget <= 0 {
		o.ShedBudget = 30 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 2
	}
	return o
}

// Gateway is the fleet front end: the degradation ladder as a
// sweep.Placer, served by a server.Server. Clients (and load balancers)
// see dvsd's surface — POST /simulate, POST /sweep, GET /healthz,
// GET /metrics — and cannot tell the difference, except for throughput.
type Gateway struct {
	opts Options
	srv  *server.Server
	pool *Pool
	met  ladderMetrics
	tr   *obs.Tracer
}

// New builds a gateway over at least one peer.
func New(opts Options) (*Gateway, error) {
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("fleet: no peers")
	}
	opts = opts.withDefaults()
	g := &Gateway{
		opts: opts,
		pool: newPool(opts.Peers, replicas, opts.FailAfter, opts.ProbeTimeout, opts.Client),
		tr:   opts.Server.Tracer,
	}
	so := opts.Server
	so.Placer = g
	g.srv = server.New(so)
	return g, nil
}

// Handler returns the routed handler, for embedding and httptest. Health
// probes run only under Serve.
func (g *Gateway) Handler() http.Handler { return g.srv.Handler() }

// Pool exposes the backend pool (probe state, for status printing).
func (g *Gateway) Pool() *Pool { return g.pool }

// ListenAndServe serves on addr until Shutdown; a clean shutdown returns
// nil.
func (g *Gateway) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return g.Serve(ln)
}

// Serve starts the health-probe loop (one synchronous round, then one
// per ProbeInterval) and serves on ln until Shutdown.
func (g *Gateway) Serve(ln net.Listener) error {
	g.pool.start(g.opts.ProbeInterval)
	return g.srv.Serve(ln)
}

// Shutdown stops probing and the listener, draining in-flight requests
// (including streaming sweeps) until they finish or ctx expires.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.pool.stopClose()
	return g.srv.Shutdown(ctx)
}

// Name implements server.Fleet: the gateway's series, log lines and
// request traces are dvsgw's.
func (g *Gateway) Name() string { return "dvsgw" }

// WriteHealth implements server.Fleet with the fleet's liveness.
func (g *Gateway) WriteHealth(w io.Writer) {
	fmt.Fprintf(w, "\"backends_live\":%d,\"backends_total\":%d,", g.pool.live(), len(g.pool.backends))
}

// Place implements sweep.Placer with the degradation ladder. Each cell
// roots its own trace, starting when its sweep did and recording the
// fan-out wait as its first child, so queueing delay is visible
// separately from execution.
func (g *Gateway) Place(ctx context.Context, i int, c sweep.Cell) sweep.Outcome {
	queued := sweep.Started(ctx)
	cctx, root := obs.StartAt(ctx, "gw.cell", queued)
	root.SetAttr("index", fmt.Sprint(i))
	root.SetAttr("key", c.Key)
	_, qsp := obs.StartAt(cctx, "queue", queued)
	qsp.End()
	resp, ae := g.runCell(cctx, c)
	if ae != nil {
		root.SetAttr("error", ae.Code)
		root.End()
		return sweep.Outcome{Err: ae}
	}
	root.SetAttr("cached", fmt.Sprint(resp.Cached))
	root.End()
	return sweep.Outcome{Cached: resp.Cached, Wire: &resp.Result}
}

// forward POSTs one cell to one backend via the shared wire client and
// folds the classification into the fleet's liveness bookkeeping.
// Context cancellation is never charged to the backend: our deadline
// expiring (or a hedge race being lost) is not evidence the backend is
// down. The attempt is recorded as a "route" span whose traceparent is
// injected on the wire, so the backend's own spans stitch beneath it;
// span and latency histogram observe the same request interval, so
// traces and /metrics agree on where the time went.
func (g *Gateway) forward(ctx context.Context, b *backend, body []byte) dvsclient.Result {
	b.requests.Add(1)
	_, sp := obs.Start(ctx, "route")
	sp.SetAttr("backend", b.url)
	start := time.Now()
	res := dvsclient.Do(ctx, g.opts.Client, b.url, body, obs.Traceparent(sp))
	switch {
	case res.Ok:
		b.markSuccess()
		b.lat.Observe(time.Since(start))
		sp.SetAttr("outcome", "ok")
	case res.AE != nil:
		// A typed rejection proves the backend is alive and talking.
		b.markSuccess()
		sp.SetAttr("outcome", "relay:"+res.AE.Code)
	case res.Shed:
		b.markSuccess()
		sp.SetAttr("outcome", "shed")
	default:
		// Transport failure or a non-wire-format response; charged to the
		// backend unless our own context ended the attempt.
		if ctx.Err() == nil {
			b.failures.Add(1)
			b.markFailure(g.pool.failAfter)
		}
		if res.Transport {
			sp.SetAttr("outcome", "transport")
		} else {
			sp.SetAttr("outcome", "retry")
		}
	}
	sp.End()
	return res
}

// sleepCtx waits d or until ctx is done; false means ctx won.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// backoff is the delay before retry number n (1-based): Backoff·2ⁿ⁻¹
// capped at MaxBackoff, plus up to 50% jitter so a fleet-wide failure
// does not resynchronize every cell's retry. Doubling stops at the cap
// instead of shifting blindly: a naive Backoff<<(n-1) wraps negative for
// the large n a user-set -retries allows, sails under the cap check, and
// feeds rand.Int63n a non-positive argument (a panic).
func (g *Gateway) backoff(n int) time.Duration {
	maxDelay := g.opts.MaxBackoff
	d := g.opts.Backoff
	for i := 1; i < n && d < maxDelay; i++ {
		d <<= 1
	}
	if d > maxDelay || d <= 0 {
		d = maxDelay
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// runCell resolves one cell through the degradation ladder: route to the
// ring's home backend, fail over with bounded backoff retries, hedge the
// first attempt if configured, and finally fall back to in-process
// execution when no backend could serve it. Every rung records a span
// under the cell's trace, so a slow cell explains itself at
// /debug/traces.
func (g *Gateway) runCell(ctx context.Context, c sweep.Cell) (server.SimulateResponse, *server.APIError) {
	body := c.Body
	failedAttempts := 0
	var shedSpent time.Duration
	for body != nil { // wire-inexpressible cells go straight to local fallback
		if ctx.Err() != nil {
			return server.SimulateResponse{}, server.OutcomeError(ctx.Err())
		}
		if failedAttempts >= g.opts.MaxAttempts {
			break
		}
		// Re-read liveness every attempt so mid-cell ejections and
		// re-admissions take effect immediately.
		prefs := g.pool.order(c.Key)
		if len(prefs) == 0 {
			break
		}
		b := prefs[failedAttempts%len(prefs)]
		var res dvsclient.Result
		if failedAttempts == 0 && g.opts.HedgeAfter > 0 && len(prefs) > 1 {
			res = g.forwardHedged(ctx, b, prefs[1], body)
		} else {
			res = g.forward(ctx, b, body)
		}
		switch {
		case res.Ok:
			return res.Resp, nil
		case res.AE != nil:
			return server.SimulateResponse{}, res.AE
		case res.Shed:
			// Backpressure, not failure: the backend asked us to come
			// back, so waiting doesn't burn a failover attempt. But the
			// wait is bounded by ShedBudget — a request context need not
			// carry a deadline, and even one that does should degrade to
			// local fallback rather than time the whole cell out against
			// a permanently saturated backend.
			wait := res.WaitHint
			if wait <= 0 {
				wait = g.backoff(1)
			}
			if rem := g.opts.ShedBudget - shedSpent; wait > rem {
				wait = rem
			}
			if wait <= 0 {
				// Budget exhausted: backpressure is no longer free and
				// each further shed is charged as a failed attempt.
				obs.SpanFrom(ctx).Event("shed.budget_exhausted")
				failedAttempts++
				continue
			}
			shedSpent += wait
			g.met.shedWait.Add(1)
			_, ssp := obs.Start(ctx, "shed.wait")
			ssp.SetAttr("backend", b.url)
			ssp.SetAttr("wait_ms", fmt.Sprint(wait.Milliseconds()))
			sleepCtx(ctx, wait)
			ssp.End()
		default:
			failedAttempts++
			if failedAttempts < g.opts.MaxAttempts {
				g.met.retried.Add(1)
				_, bsp := obs.Start(ctx, "retry.backoff")
				bsp.SetAttr("attempt", fmt.Sprint(failedAttempts))
				sleepCtx(ctx, g.backoff(failedAttempts))
				bsp.End()
			}
		}
	}
	if ctx.Err() != nil {
		return server.SimulateResponse{}, server.OutcomeError(ctx.Err())
	}
	// Degradation floor: no backend could serve the cell — zero live, or
	// the attempt budget burned down — so run it here, exactly as a
	// single-node dvsd would.
	g.met.local.Add(1)
	lctx, lsp := obs.Start(ctx, "local")
	out := g.srv.Runner().DoKeyed(lctx, c.Job, c.Key)
	lsp.End()
	if out.Err != nil {
		return server.SimulateResponse{}, server.OutcomeError(out.Err)
	}
	return server.SimulateResponse{Cached: out.Cached, Result: server.ToResultJSON(out.Result)}, nil
}

// forwardHedged races the home backend against a delayed duplicate on
// the failover target: the first decisive answer (success or terminal
// rejection) wins and the loser's request is cancelled. Indecisive
// results (both retryable) surface the primary's, so the caller's retry
// ladder proceeds as if unhedged.
func (g *Gateway) forwardHedged(ctx context.Context, primary, secondary *backend, body []byte) dvsclient.Result {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan dvsclient.Result, 2)
	go func() { ch <- g.forward(hctx, primary, body) }()
	t := time.NewTimer(g.opts.HedgeAfter)
	defer t.Stop()
	timerC := t.C
	launched, received := 1, 0
	var first dvsclient.Result
	for {
		select {
		case res := <-ch:
			received++
			if res.Ok || res.AE != nil {
				return res
			}
			if received == 1 {
				first = res
			}
			if received == launched {
				if launched == 1 {
					// Primary failed before the hedge delay: no point
					// hedging now, the retry ladder handles failover.
					return res
				}
				return first
			}
		case <-timerC:
			timerC = nil
			launched = 2
			g.met.hedged.Add(1)
			sctx, hsp := obs.Start(hctx, "hedge")
			hsp.SetAttr("backend", secondary.url)
			go func() {
				res := g.forward(sctx, secondary, body)
				hsp.End()
				ch <- res
			}()
		}
	}
}
