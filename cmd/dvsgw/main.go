// Command dvsgw is the fleet gateway: it exposes the same HTTP surface
// as a single dvsd instance — POST /simulate, POST /sweep (NDJSON
// stream), GET /healthz, GET /metrics — but fans a sweep's cells across
// a pool of dvsd backends, routing each cell by its content-addressed
// cache key so repeated cells land on the backend whose memo cache is
// already warm.
//
// Usage:
//
//	dvsgw -peers http://10.0.0.7:8377,http://10.0.0.8:8377
//	dvsgw -addr :8378 -peers ... -hedge-after 250ms
//
// Backends are health-checked (GET /healthz) and ejected after
// consecutive failures; cells fail over along the consistent-hash ring
// with bounded backoff retries, and when no backend can serve a cell the
// gateway runs it in-process, so a fleet of zero live backends degrades
// to single-node dvsd behaviour rather than an outage. SIGINT/SIGTERM
// drain in-flight requests (including streaming sweeps) before exit.
//
// Every sweep cell records its trip down that ladder — queue wait,
// route, retries, hedges, local fallback — as a trace served at
// GET /debug/traces (ring size -trace-buffer); W3C traceparent headers
// propagate on forwarded cells so each backend's own trace stitches
// under the cell's. -debug-addr serves the same dump plus pprof on a
// side listener.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/cmd/internal/daemon"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/runner"
)

func main() {
	f := daemon.Register("dvsgw", ":8378", "local-fallback parallelism (0 = GOMAXPROCS)",
		"finished per-cell trace ring size served at /debug/traces (0 disables tracing)")
	peersFlag := flag.String("peers", "", "comma-separated dvsd backend base URLs (required)")
	fanout := flag.Int("fanout", 16, "concurrently in-flight cells per sweep")
	retries := flag.Int("retries", 3, "forwarding attempts per cell before local fallback (first try included)")
	backoff := flag.Duration("backoff", 50*time.Millisecond, "base retry delay (doubles per attempt, plus jitter)")
	hedgeAfter := flag.Duration("hedge-after", 0, "duplicate a cell to the next backend if the home one hasn't answered within this delay (0 = no hedging)")
	shedBudget := flag.Duration("shed-budget", 30*time.Second, "cumulative 429-backpressure wait per cell before sheds burn failover attempts (degrades a saturated fleet to local execution)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "backend health-check period")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-probe deadline")
	failAfter := flag.Int("fail-after", 2, "consecutive failures (probe or data path) that eject a backend")
	flag.Parse()

	var peers []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
	}
	if len(peers) == 0 {
		f.Usagef("-peers is required: at least one dvsd backend URL")
	}
	for name, v := range map[string]int{"-fanout": *fanout, "-retries": *retries, "-fail-after": *failAfter} {
		if v <= 0 {
			f.Usagef("invalid %s %d: want > 0", name, v)
		}
	}
	for name, d := range map[string]time.Duration{
		"-backoff": *backoff, "-probe-interval": *probeInterval, "-probe-timeout": *probeTimeout,
		"-shed-budget": *shedBudget,
	} {
		if d <= 0 {
			f.Usagef("invalid %s %v: want > 0", name, d)
		}
	}
	if *hedgeAfter < 0 {
		f.Usagef("invalid -hedge-after %v: want >= 0 (0 = no hedging)", *hedgeAfter)
	}
	f.Validate()

	tr := obs.New("dvsgw", f.TraceBuffer)
	opts := f.ServerOptions(runner.New(f.Workers), tr)
	opts.Fanout = *fanout
	gw, err := fleet.New(fleet.Options{
		Server:        opts,
		Peers:         peers,
		MaxAttempts:   *retries,
		Backoff:       *backoff,
		HedgeAfter:    *hedgeAfter,
		ShedBudget:    *shedBudget,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		FailAfter:     *failAfter,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvsgw:", err)
		os.Exit(2)
	}

	f.Run(gw, tr, fmt.Sprintf("serving on %s over %d backends (fanout %d, queue %d)",
		f.Addr, len(peers), *fanout, f.Queue))
	fmt.Println("dvsgw: drained")
}
