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
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8378", "listen address")
	peersFlag := flag.String("peers", "", "comma-separated dvsd backend base URLs (required)")
	workers := flag.Int("workers", 0, "local-fallback parallelism (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 8, "admission queue bound: concurrent requests admitted before shedding with 429")
	maxJobs := flag.Int("max-jobs", 4096, "maximum grid cells per sweep request")
	timeout := flag.Duration("timeout", 2*time.Minute, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 15*time.Minute, "clamp on client-requested deadlines")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget for in-flight requests")
	fanout := flag.Int("fanout", 16, "concurrently in-flight cells per sweep")
	retries := flag.Int("retries", 3, "forwarding attempts per cell before local fallback (first try included)")
	backoff := flag.Duration("backoff", 50*time.Millisecond, "base retry delay (doubles per attempt, plus jitter)")
	hedgeAfter := flag.Duration("hedge-after", 0, "duplicate a cell to the next backend if the home one hasn't answered within this delay (0 = no hedging)")
	shedBudget := flag.Duration("shed-budget", 30*time.Second, "cumulative 429-backpressure wait per cell before sheds burn failover attempts (degrades a saturated fleet to local execution)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "backend health-check period")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-probe deadline")
	failAfter := flag.Int("fail-after", 2, "consecutive failures (probe or data path) that eject a backend")
	traceBuffer := flag.Int("trace-buffer", 256, "finished per-cell trace ring size served at /debug/traces (0 disables tracing)")
	debugAddr := flag.String("debug-addr", "", "side listener for /debug/pprof and /debug/traces, off the service port and its admission gate (empty = disabled)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for sweep checkpoint journals: completed cells are journaled as they stream, and re-posting an interrupted sweep resumes instead of recomputing (empty = off)")
	flag.Parse()

	var peers []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
	}
	if len(peers) == 0 {
		fmt.Fprintf(os.Stderr, "dvsgw: -peers is required: at least one dvsd backend URL\n\n")
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "dvsgw: invalid -workers %d: want >= 0 (0 = all cores)\n\n", *workers)
		flag.Usage()
		os.Exit(2)
	}
	if *queue <= 0 {
		fmt.Fprintf(os.Stderr, "dvsgw: invalid -queue %d: want > 0\n\n", *queue)
		flag.Usage()
		os.Exit(2)
	}
	for name, v := range map[string]int{"-fanout": *fanout, "-retries": *retries, "-fail-after": *failAfter} {
		if v <= 0 {
			fmt.Fprintf(os.Stderr, "dvsgw: invalid %s %d: want > 0\n\n", name, v)
			flag.Usage()
			os.Exit(2)
		}
	}
	if *traceBuffer < 0 {
		fmt.Fprintf(os.Stderr, "dvsgw: invalid -trace-buffer %d: want >= 0 (0 = tracing off)\n\n", *traceBuffer)
		flag.Usage()
		os.Exit(2)
	}
	for name, d := range map[string]time.Duration{
		"-backoff": *backoff, "-probe-interval": *probeInterval, "-probe-timeout": *probeTimeout,
		"-shed-budget": *shedBudget,
	} {
		if d <= 0 {
			fmt.Fprintf(os.Stderr, "dvsgw: invalid %s %v: want > 0\n\n", name, d)
			flag.Usage()
			os.Exit(2)
		}
	}
	if *hedgeAfter < 0 {
		fmt.Fprintf(os.Stderr, "dvsgw: invalid -hedge-after %v: want >= 0 (0 = no hedging)\n\n", *hedgeAfter)
		flag.Usage()
		os.Exit(2)
	}

	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "dvsgw: -checkpoint-dir:", err)
			os.Exit(2)
		}
	}

	tr := obs.New("dvsgw", *traceBuffer)
	gw, err := fleet.New(fleet.Options{
		Server: server.Options{
			Runner:         runner.New(*workers),
			Fanout:         *fanout,
			MaxInflight:    *queue,
			MaxJobs:        *maxJobs,
			DefaultTimeout: *timeout,
			MaxTimeout:     *maxTimeout,
			Tracer:         tr,
			CheckpointDir:  *ckptDir,
		},
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		go func() {
			// Debug surface on its own listener: pprof and trace dumps
			// must stay reachable when the service port is saturated.
			if err := http.ListenAndServe(*debugAddr, tr.DebugMux()); err != nil {
				fmt.Fprintln(os.Stderr, "dvsgw: debug listener:", err)
			}
		}()
		fmt.Printf("dvsgw: debug surface on %s (/debug/pprof, /debug/traces)\n", *debugAddr)
	}

	errc := make(chan error, 1)
	go func() { errc <- gw.ListenAndServe(*addr) }()
	fmt.Printf("dvsgw: serving on %s over %d backends (fanout %d, queue %d)\n",
		*addr, len(peers), *fanout, *queue)

	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvsgw:", err)
			os.Exit(1)
		}
		return
	case <-ctx.Done():
	}
	stop() // restore default signal behaviour: a second signal kills hard

	fmt.Println("dvsgw: draining in-flight requests...")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := gw.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "dvsgw: shutdown:", err)
		os.Exit(1)
	}
	<-errc // ListenAndServe returns nil after a clean Shutdown
	fmt.Println("dvsgw: drained")
}
