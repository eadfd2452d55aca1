// Package server is the HTTP front of dvsd and dvsgw: simulation-as-a-
// service over the sweep pipeline. Where a cell runs is pluggable
// (Options.Placer). dvsd places every cell on one long-lived
// runner.Runner, so the content-addressed memo cache warms across
// clients: repeated grid cells are answered from cache, fresh cells pay
// one simulation. dvsgw plugs in the fleet's degradation ladder
// (internal/fleet) and fans the same cells out to dvsd backends.
//
// Endpoints:
//
//	POST /simulate  one (workload, strategy, config) job → JSON result
//	POST /sweep     a job list or workloads×strategies grid → NDJSON,
//	                one record per cell as it completes, then a trailer
//	GET  /healthz   liveness + queue snapshot
//	GET  /metrics   Prometheus text format
//
// Production shape: strict typed validation (errors.go), a bounded
// admission gate that sheds with 429 + Retry-After (queue.go),
// per-request deadlines propagated into placement as context
// cancellation, and graceful shutdown that drains in-flight requests.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sweep"
)

// Options configures the service.
type Options struct {
	// Runner executes the simulations; nil builds one with default
	// parallelism. Sharing a Runner across servers shares its cache.
	Runner *runner.Runner
	// Placer decides where each cell runs. Nil places every cell on
	// Runner (sweep.Local): that is dvsd. The fleet gateway passes its
	// degradation ladder here, keeping Runner as its local fallback; a
	// Placer that also implements Fleet names the daemon and adds its own
	// /healthz keys and /metrics series.
	Placer sweep.Placer
	// Fanout bounds the cells one sweep places concurrently; 0 means
	// Runner's worker count.
	Fanout int
	// MaxInflight bounds concurrently admitted requests; beyond it the
	// server sheds with 429. Default 8.
	MaxInflight int
	// MaxJobs bounds the cells of a single sweep request. Default 4096.
	MaxJobs int
	// DefaultTimeout applies when a request carries no timeout_ms.
	// Default 2 minutes.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts. Default 15 minutes.
	MaxTimeout time.Duration
	// RetryAfter is the backoff hint attached to 429 responses.
	// Default 1 second.
	RetryAfter time.Duration
	// Tracer records per-request spans (admission, placement, runner
	// cache resolution, sim phases) into the /debug/traces ring, joining
	// the caller's trace when the request carries a traceparent header.
	// Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// CheckpointDir, when set, journals each sweep's completed cells so
	// re-posting an interrupted sweep replays them instead of
	// recomputing. Empty disables checkpointing.
	CheckpointDir string
	// CheckpointFS is the filesystem the journal runs on; nil means the
	// real one. Fault-injection tests (internal/chaos) substitute a faulty
	// FS to drive torn writes and crash-at-op-N through the journal.
	CheckpointFS sweep.FS
}

func (o Options) withDefaults() Options {
	if o.Runner == nil {
		o.Runner = runner.New(0)
	}
	if o.Placer == nil {
		o.Placer = sweep.Local{Runner: o.Runner}
	}
	if o.Fanout <= 0 {
		o.Fanout = o.Runner.Workers()
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 8
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 4096
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 2 * time.Minute
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 15 * time.Minute
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// Fleet is the optional method set of a Placer that spreads cells over
// other daemons. The server discovers it by type assertion, the way
// net/http discovers http.Flusher; a Placer without it is served as dvsd.
// A Fleet placer roots one trace per cell, so a sweep request opens no
// request-level span of its own.
type Fleet interface {
	// Name is the daemon name: the prefix of its /metrics series, log
	// lines and request trace roots ("dvsgw").
	Name() string
	// WriteHealth writes the placer's /healthz members, each followed by
	// a comma.
	WriteHealth(w io.Writer)
	// WriteMetrics writes the placer's own /metrics series.
	WriteMetrics(w io.Writer)
}

// Server is the HTTP front of dvsd and dvsgw.
type Server struct {
	opts  Options
	fleet Fleet // nil when serving as dvsd
	name  string
	gate  *gate
	met   *metrics
	mux   *http.ServeMux

	mu sync.Mutex
	hs *http.Server
}

// New builds a service from opts (zero value is usable).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts: opts,
		name: "dvsd",
		gate: newGate(opts.MaxInflight),
		met:  newMetrics(),
	}
	if f, ok := opts.Placer.(Fleet); ok {
		s.fleet, s.name = f, f.Name()
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/simulate", s.instrument("/simulate", s.handleSimulate))
	s.mux.HandleFunc("/sweep", s.instrument("/sweep", s.handleSweep))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.Handle("/debug/traces", opts.Tracer.DebugHandler())
	return s
}

// Runner returns the shared engine (its Stats feed /metrics).
func (s *Server) Runner() *runner.Runner { return s.opts.Runner }

// Counters is a snapshot of the server's sweep bookkeeping.
type Counters struct {
	Resumed          int64 // cells replayed from a checkpoint journal
	CheckpointErrors int64 // journals that could not be opened
}

// Counters snapshots the sweep counters — the programmatic twin of the
// resumed-cells and checkpoint-error series.
func (s *Server) Counters() Counters {
	return Counters{Resumed: s.met.resumed.Load(), CheckpointErrors: s.met.ckptErr.Load()}
}

// Handler returns the routed handler, for embedding and httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until Shutdown; a clean shutdown
// returns nil.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on an existing listener until Shutdown; a clean shutdown
// returns nil.
func (s *Server) Serve(ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.mu.Lock()
	s.hs = hs
	s.mu.Unlock()
	err := hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown stops accepting connections and drains in-flight requests
// (including streaming sweeps) until they finish or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	hs := s.hs
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}

// statusWriter captures the response status for metrics and forwards
// Flush so NDJSON streaming survives the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with request counting and latency
// observation.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.met.record(path, sw.status, time.Since(start))
	}
}

// decodeBody strictly parses a JSON body into v; unknown fields are typed
// errors, not silently dropped — a misspelled knob must not run a
// default-configured simulation.
func decodeBody(r *http.Request, v any) *APIError {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badField(CodeBadRequest, "", "invalid JSON body: %v", err)
	}
	return nil
}

// timeoutFor resolves a request's timeout_ms against server bounds.
func (s *Server) timeoutFor(ms float64) time.Duration {
	if ms <= 0 {
		return s.opts.DefaultTimeout
	}
	// Clamp in float64: a timeout_ms past ~9.2e12 overflows Duration
	// and would come out negative, cancelling the request at once.
	d := ms * float64(time.Millisecond)
	if d >= float64(s.opts.MaxTimeout) {
		return s.opts.MaxTimeout
	}
	return time.Duration(d)
}

// methodNotAllowed renders the typed 405 naming the verb to use.
func methodNotAllowed(w http.ResponseWriter, method string) {
	WriteError(w, Errf(http.StatusMethodNotAllowed, CodeMethodNotAllowed, "",
		"use %s", method))
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req SimulateRequest
	if ae := decodeBody(r, &req); ae != nil {
		WriteError(w, ae)
		return
	}
	cell, err := req.JobSpec.Cell()
	if err != nil {
		WriteError(w, InField(err, ""))
		return
	}
	sc, err := cell.Wire()
	if err != nil {
		WriteError(w, InField(err, ""))
		return
	}
	if !s.gate.tryAcquire() {
		WriteError(w, QueueFull(s.opts.RetryAfter))
		return
	}
	defer s.gate.release()

	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMS))
	defer cancel()
	// Root span of this process's part of the trace; a traceparent sent
	// by a fleet gateway stitches it under the gateway's route span.
	ctx, sp := s.opts.Tracer.StartRequest(ctx, s.name+".simulate", r.Header.Get("traceparent"))
	sp.SetAttr("queue_depth", fmt.Sprint(s.gate.depth()))
	out := s.opts.Placer.Place(ctx, 0, sc)
	if out.Err != nil {
		sp.SetAttr("error", out.Err.Error())
		sp.End()
		WriteError(w, out.Err)
		return
	}
	sp.SetAttr("cached", fmt.Sprint(out.Cached))
	sp.End()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(SimulateResponse{Cached: out.Cached, Result: *out.ResultJSON()})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	var req SweepRequest
	if ae := decodeBody(r, &req); ae != nil {
		WriteError(w, ae)
		return
	}
	plan, err := req.Plan(s.opts.MaxJobs)
	if err != nil {
		WriteError(w, InField(err, ""))
		return
	}
	if !s.gate.tryAcquire() {
		WriteError(w, QueueFull(s.opts.RetryAfter))
		return
	}
	defer s.gate.release()

	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMS))
	defer cancel()
	var sp *obs.Span
	if s.fleet != nil {
		// Carry only the tracer: each cell roots its own trace, so
		// /debug/traces answers "why was THIS cell slow" directly.
		ctx = obs.WithTracer(ctx, s.opts.Tracer)
	} else {
		// One trace per sweep request: cells show up as runner/sim child
		// spans, since a direct sweep is one client operation.
		ctx, sp = s.opts.Tracer.StartRequest(ctx, s.name+".sweep", r.Header.Get("traceparent"))
		sp.SetAttr("jobs", fmt.Sprint(plan.Len()))
		defer sp.End()
	}

	// Checkpointing is best-effort: a journal that cannot be opened must
	// not fail the sweep, it only costs re-execution after a crash. The
	// failure is still surfaced — logged, counted, and marked on the
	// request span — because a sweep that silently runs uncheckpointed is
	// a resume that silently won't work.
	var ckpt *sweep.Checkpoint
	if s.opts.CheckpointDir != "" {
		var cerr error
		ckpt, cerr = sweep.OpenCheckpointFS(s.opts.CheckpointFS, sweep.CheckpointPath(s.opts.CheckpointDir, plan), plan)
		if cerr != nil {
			s.met.ckptErr.Add(1)
			sp.Event("checkpoint.open_failed")
			log.Printf("%s: sweep running uncheckpointed: %v", s.name, cerr)
		}
	}

	// Stream: one record per cell in completion order, then a trailer.
	// The header commits status 200 before results exist; per-cell
	// failures travel in-band as error records. Resumed-cell counts go to
	// /metrics, never the trailer: a resumed sweep's stream must match an
	// uninterrupted one.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := sweep.NewEncoder(w)
	_, sum := sweep.Execute(ctx, plan, s.opts.Placer, sweep.ExecOptions{
		Parallel:   s.opts.Fanout,
		OnRecord:   enc.Record, // Execute serializes observer calls
		Checkpoint: ckpt,
	})
	enc.Trailer(plan.Len())
	s.met.cells.Add(int64(plan.Len()))
	s.met.resumed.Add(int64(sum.Resumed))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	// A fleet front is healthy even with zero live backends — its local
	// fallback still serves — so status stays "ok" and the placer's keys
	// carry the fleet's actual state.
	st := s.opts.Runner.Stats()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, `{"status":"ok",`)
	if s.fleet != nil {
		s.fleet.WriteHealth(w)
	}
	fmt.Fprintf(w, "\"queue_depth\":%d,\"queue_capacity\":%d,\"workers\":%d,\"cache_entries\":%d,\"cache_bytes\":%d}\n",
		s.gate.depth(), s.gate.capacity(), s.opts.Runner.Workers(), st.Entries, st.Bytes)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.render(w, s.name, s.gate, s.opts.Runner.Stats())
	if s.fleet != nil {
		s.fleet.WriteMetrics(w)
	}
}
