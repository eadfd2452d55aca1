package fleet

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/server"
)

// ladderMetrics counts the degradation ladder's decisions. The front's
// own series (requests, latency, queue, checkpointing, the fallback
// runner) are the server's; these and the per-backend series are what
// the gateway adds to /metrics.
type ladderMetrics struct {
	retried  atomic.Int64 // cell attempts beyond a cell's first
	hedged   atomic.Int64 // hedge requests launched
	shedWait atomic.Int64 // waits on a backend 429 (backpressure, not failure)
	local    atomic.Int64 // cells executed in-process (degradation floor)
}

// Counters is a point-in-time snapshot of the gateway's fleet-level
// counters — the programmatic twin of the dvsgw_* Prometheus series, so
// invariant checkers (internal/chaos) can assert fault accounting
// without scraping the text exposition.
type Counters struct {
	Retried          int64 // attempts beyond each cell's first
	Hedged           int64 // hedge requests launched
	ShedWaits        int64 // waits taken on backend 429 backpressure
	Local            int64 // cells run in-process (degradation floor)
	Resumed          int64 // cells replayed from a checkpoint journal
	CheckpointErrors int64 // journals that could not be opened
}

// Counters snapshots the fleet-level counters. Each field is read
// atomically; the snapshot is not a consistent cut across fields, which
// is fine for monotone counters read at quiescence.
func (g *Gateway) Counters() Counters {
	sc := g.srv.Counters()
	return Counters{
		Retried:          g.met.retried.Load(),
		Hedged:           g.met.hedged.Load(),
		ShedWaits:        g.met.shedWait.Load(),
		Local:            g.met.local.Load(),
		Resumed:          sc.Resumed,
		CheckpointErrors: sc.CheckpointErrors,
	}
}

// WriteMetrics implements server.Fleet: the ladder counters, then the
// per-backend series. Pool state is read at call time, so probe state
// and backend counters are current.
func (g *Gateway) WriteMetrics(w io.Writer) {
	m := &g.met
	server.Counter(w, "dvsgw_requests_retried_total", "Cell attempts beyond each cell's first (failover and error retries).", m.retried.Load())
	server.Counter(w, "dvsgw_hedged_requests_total", "Hedge requests launched against straggler cells.", m.hedged.Load())
	server.Counter(w, "dvsgw_shed_waits_total", "Backoff waits taken on a backend queue_full shed.", m.shedWait.Load())
	server.Counter(w, "dvsgw_local_fallback_cells_total", "Cells executed in-process because no backend could serve them.", m.local.Load())

	bs := g.pool.backends
	series := func(name, typ, help string, v func(*backend) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, b := range bs {
			fmt.Fprintf(w, "%s{backend=%q} %d\n", name, b.url, v(b))
		}
	}
	series("dvsgw_backend_up", "gauge", "Probe state: 1 = admitted, 0 = ejected.", func(b *backend) int64 {
		if b.up.Load() {
			return 1
		}
		return 0
	})
	series("dvsgw_backend_requests_total", "counter", "Cell forwards attempted, by backend.", func(b *backend) int64 { return b.requests.Load() })
	series("dvsgw_backend_failures_total", "counter", "Cell forwards that failed (transport error or shed), by backend.", func(b *backend) int64 { return b.failures.Load() })
	series("dvsgw_backend_probes_total", "counter", "Health probes sent, by backend.", func(b *backend) int64 { return b.probes.Load() })
	series("dvsgw_backend_probe_failures_total", "counter", "Health probes failed, by backend.", func(b *backend) int64 { return b.probeErr.Load() })

	fmt.Fprintln(w, "# HELP dvsgw_backend_cell_seconds Successful cell forward latency, by backend.")
	fmt.Fprintln(w, "# TYPE dvsgw_backend_cell_seconds histogram")
	for _, b := range bs {
		b.lat.Write(w, "dvsgw_backend_cell_seconds", "backend", b.url)
	}
}
