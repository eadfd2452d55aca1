package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runner"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning a
// cache hit (~100 µs) to a class-C sweep (minutes). Cumulative counts, in
// the Prometheus style; the implicit +Inf bucket is the total count.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// Histogram is a lock-free latency histogram over latencyBuckets, cheap
// enough for per-request and per-cell paths. Both daemons' request
// latency and the gateway's per-backend cell latency use it.
type Histogram struct {
	counts [9]atomic.Int64 // len(latencyBuckets)+1, last = +Inf overflow
	sumUS  atomic.Int64    // microseconds, so the sum can stay atomic
	n      atomic.Int64
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[sort.SearchFloat64s(latencyBuckets, d.Seconds())].Add(1)
	h.sumUS.Add(d.Microseconds())
	h.n.Add(1)
}

// Write renders the histogram's bucket, sum and count series for name,
// labelled label="value".
func (h *Histogram) Write(w io.Writer, name, label, value string) {
	var cum int64
	for i, le := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"%g\"} %d\n", name, label, value, le, cum)
	}
	n := h.n.Load()
	fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, value, n)
	fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, value, float64(h.sumUS.Load())/1e6)
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, value, n)
}

// metrics is the front's instrumentation: request counts by
// (path, status), per-path latency histograms, and sweep counters.
// Queue depth and runner cache stats are sampled live at render time
// from their owners rather than mirrored here.
type metrics struct {
	mu       sync.Mutex
	requests map[string]int64 // "path|status" → count
	latency  map[string]*Histogram

	cells   atomic.Int64 // sweep grid cells streamed
	resumed atomic.Int64 // cells replayed from a checkpoint journal
	ckptErr atomic.Int64 // checkpoint journals that failed to open
}

func newMetrics() *metrics {
	return &metrics{
		requests: map[string]int64{},
		latency:  map[string]*Histogram{},
	}
}

func (m *metrics) record(path string, status int, d time.Duration) {
	m.mu.Lock()
	m.requests[fmt.Sprintf("%s|%d", path, status)]++
	h := m.latency[path]
	if h == nil {
		h = &Histogram{}
		m.latency[path] = h
	}
	m.mu.Unlock()
	h.Observe(d)
}

// Counter writes one counter series with its HELP and TYPE lines.
func Counter(w io.Writer, name, help string, v any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
}

// gauge writes one gauge series with its HELP and TYPE lines.
func gauge(w io.Writer, name, help string, v any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
}

// render writes the Prometheus text exposition format, every series
// prefixed with the daemon name. Runner stats and the gate are read at
// call time so the figures are current, not last-request-stale.
func (m *metrics) render(w io.Writer, p string, g *gate, st runner.Stats) {
	m.mu.Lock()
	fmt.Fprintf(w, "# HELP %s_requests_total Requests served, by path and status.\n", p)
	fmt.Fprintf(w, "# TYPE %s_requests_total counter\n", p)
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sep := strings.IndexByte(k, '|')
		fmt.Fprintf(w, "%s_requests_total{path=%q,status=%q} %d\n", p, k[:sep], k[sep+1:], m.requests[k])
	}
	fmt.Fprintf(w, "# HELP %s_request_seconds Request latency, by path.\n", p)
	fmt.Fprintf(w, "# TYPE %s_request_seconds histogram\n", p)
	paths := make([]string, 0, len(m.latency))
	for path := range m.latency {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		m.latency[path].Write(w, p+"_request_seconds", "path", path)
	}
	m.mu.Unlock()

	Counter(w, p+"_sweep_cells_total", "Sweep grid cells streamed.", m.cells.Load())
	Counter(w, p+"_resumed_cells_total", "Sweep cells replayed from a checkpoint journal instead of re-executed.", m.resumed.Load())
	Counter(w, p+"_checkpoint_errors_total", "Checkpoint journals that could not be opened (the sweep ran uncheckpointed).", m.ckptErr.Load())
	gauge(w, p+"_queue_depth", "Requests currently admitted.", g.depth())
	gauge(w, p+"_queue_capacity", "Admission queue bound.", g.capacity())

	Counter(w, p+"_runner_runs_total", "Simulations actually executed by the shared runner.", st.Runs)
	Counter(w, p+"_runner_cache_hits_total", "Jobs satisfied from the memo cache.", st.Hits)
	rate := 0.0
	if st.Runs+st.Hits > 0 {
		rate = float64(st.Hits) / float64(st.Runs+st.Hits)
	}
	gauge(w, p+"_runner_cache_hit_rate", "Hits / (hits + runs) over the runner lifetime.", rate)
	Counter(w, p+"_runner_panics_recovered_total", "Simulation panics contained by the engine and converted to error outcomes.", st.Panics)
	Counter(w, p+"_runner_poisoned_total", "Error outcomes withheld from durable memoization by the failure policy.", st.Poisoned)
	Counter(w, p+"_runner_cache_evictions_total", "Completed memo entries dropped by the LRU bound.", st.Evictions)
	gauge(w, p+"_runner_cache_entries", "Resident memo-cache entries (completed + in-flight).", st.Entries)
	gauge(w, p+"_runner_cache_bytes", "Approximate resident memo-cache payload bytes.", st.Bytes)
}
