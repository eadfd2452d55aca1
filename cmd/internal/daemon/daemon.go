// Package daemon is the process lifecycle dvsd and dvsgw share: the
// service flags both accept, their validation, and the run loop — start
// serving, start the optional debug listener, wait for SIGINT/SIGTERM,
// then drain in-flight requests within a budget.
package daemon

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/server"
)

// Flags are the service flags common to both daemons, registered on the
// default flag set.
type Flags struct {
	// The values each daemon reads for its banner, runner and tracer.
	Addr        string
	Workers     int
	Queue       int
	TraceBuffer int

	name          string
	maxJobs       int
	timeout       time.Duration
	maxTimeout    time.Duration
	drain         time.Duration
	debugAddr     string
	checkpointDir string
}

// Register defines the shared flags for the daemon called name. The
// listen address default and the -workers and -trace-buffer help texts
// are the daemon's own; every other flag reads the same in both.
func Register(name, addr, workersUsage, traceUsage string) *Flags {
	f := &Flags{name: name}
	flag.StringVar(&f.Addr, "addr", addr, "listen address")
	flag.IntVar(&f.Workers, "workers", 0, workersUsage)
	flag.IntVar(&f.Queue, "queue", 8, "admission queue bound: concurrent requests admitted before shedding with 429")
	flag.IntVar(&f.maxJobs, "max-jobs", 4096, "maximum grid cells per sweep request")
	flag.DurationVar(&f.timeout, "timeout", 2*time.Minute, "default per-request deadline")
	flag.DurationVar(&f.maxTimeout, "max-timeout", 15*time.Minute, "clamp on client-requested deadlines")
	flag.DurationVar(&f.drain, "drain", 30*time.Second, "graceful-shutdown drain budget for in-flight requests")
	flag.IntVar(&f.TraceBuffer, "trace-buffer", 256, traceUsage)
	flag.StringVar(&f.debugAddr, "debug-addr", "", "side listener for /debug/pprof and /debug/traces, off the service port and its admission gate (empty = disabled)")
	flag.StringVar(&f.checkpointDir, "checkpoint-dir", "", "directory for sweep checkpoint journals: completed cells are journaled as they stream, and re-posting an interrupted sweep resumes instead of recomputing (empty = off)")
	return f
}

// Usagef reports a bad flag value with the usage text and exits 2.
func (f *Flags) Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n\n", f.name, fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}

// Validate checks the shared flags' values, exiting 2 on a bad one, and
// creates the checkpoint directory. Call it after flag.Parse and the
// daemon's own checks, so an invalid command line has no side effect.
func (f *Flags) Validate() {
	if f.Workers < 0 {
		f.Usagef("invalid -workers %d: want >= 0 (0 = all cores)", f.Workers)
	}
	if f.Queue <= 0 {
		f.Usagef("invalid -queue %d: want > 0", f.Queue)
	}
	if f.TraceBuffer < 0 {
		f.Usagef("invalid -trace-buffer %d: want >= 0 (0 = tracing off)", f.TraceBuffer)
	}
	if f.checkpointDir != "" {
		if err := os.MkdirAll(f.checkpointDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "%s: -checkpoint-dir: %v\n", f.name, err)
			os.Exit(2)
		}
	}
}

// ServerOptions returns the HTTP front's options as the shared flags set
// them, over the given runner and tracer.
func (f *Flags) ServerOptions(eng *runner.Runner, tr *obs.Tracer) server.Options {
	return server.Options{
		Runner:         eng,
		MaxInflight:    f.Queue,
		MaxJobs:        f.maxJobs,
		DefaultTimeout: f.timeout,
		MaxTimeout:     f.maxTimeout,
		Tracer:         tr,
		CheckpointDir:  f.checkpointDir,
	}
}

// Service is what a daemon serves: a server.Server or a fleet.Gateway.
type Service interface {
	ListenAndServe(addr string) error
	Shutdown(ctx context.Context) error
}

// Run serves svc on -addr, and tr's debug surface on -debug-addr when
// set, then prints banner and blocks until SIGINT or SIGTERM. It then
// drains in-flight requests within the -drain budget and returns; the
// caller prints its closing lines and exits 0. A failure to serve or to
// drain exits 1.
func (f *Flags) Run(svc Service, tr *obs.Tracer, banner string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if f.debugAddr != "" {
		go func() {
			// Debug surface on its own listener: pprof and trace dumps
			// must stay reachable when the service port is saturated.
			if err := http.ListenAndServe(f.debugAddr, tr.DebugMux()); err != nil {
				fmt.Fprintf(os.Stderr, "%s: debug listener: %v\n", f.name, err)
			}
		}()
		fmt.Printf("%s: debug surface on %s (/debug/pprof, /debug/traces)\n", f.name, f.debugAddr)
	}

	errc := make(chan error, 1)
	go func() { errc <- svc.ListenAndServe(f.Addr) }()
	fmt.Printf("%s: %s\n", f.name, banner)

	select {
	case err := <-errc: // nil only after a Shutdown, which has not happened
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.name, err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // restore default signal behaviour: a second signal kills hard

	fmt.Printf("%s: draining in-flight requests...\n", f.name)
	dctx, cancel := context.WithTimeout(context.Background(), f.drain)
	defer cancel()
	if err := svc.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: shutdown: %v\n", f.name, err)
		os.Exit(1)
	}
	<-errc // ListenAndServe returns nil after a clean Shutdown
}
