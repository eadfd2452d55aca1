// Command perfbench is the repository's benchmark. It runs one workload
// against the built programs, checks every output against reference
// digests, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	reproduce     cmd/reproduce -only all at class C, as a child process
//	sweep-mixed   64-cell /sweep grids, half warm and half fresh cells
//	simulate-hot  cached /simulate through dvsgw in front of two dvsd
//
// simulate-hot is not in BENCHMARK.json: on a two-vCPU shared host its
// all-loopback request path tracks the host's speed, and its run-to-run
// spread reached the 0.25 bound. It stays runnable for looking at the
// cache-hit path; every traced run measures that path's layers anyway.
//
// Run it from the repository root through run.sh, which builds the
// harness and the daemons first:
//
//	bash perfbench/run.sh --workload sweep-mixed --seed 1 --seconds 15 --trace 0
//
// The line before the result stamps the environment (go version,
// GOMAXPROCS, nproc, CPU model, commit, seed, traced) and each metric's
// sample count. A traced run also writes its spans to .bench_build/.
// After a change that is meant to alter results, re-derive the
// reference digests with `bash perfbench/run.sh --write-golden`. The
// benchmark's own tests run with `cd perfbench && go test ./...`.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one run reports.
type outcome struct {
	metrics map[string]metric
	samples map[string]int // sample count behind each metric
	tally   *tally
}

func (o *outcome) put(name, unit string, v float64, n int) {
	o.metrics[name] = metric{Value: v, Unit: unit}
	o.samples[name] = n
}

// config is one invocation's flags.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string
	golden   string
	out      string
}

var workloads = map[string]func(context.Context, *env, config, *outcome) error{
	"reproduce":    benchReproduce,
	"simulate-hot": benchService(hotLoop),
	"sweep-mixed":  benchService(mixedLoop),
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var c config
	var traceFlag int
	var writeGolden bool
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "reproduce, simulate-hot or sweep-mixed")
	fs.Int64Var(&c.seed, "seed", 0, "workload seed; any integer, folded into [0, 2^30)")
	fs.Float64Var(&c.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&c.bin, "bin", ".bench_build/bin", "directory holding the built reproduce, dvsd and dvsgw")
	fs.StringVar(&c.golden, "golden", "perfbench/testdata/golden.json", "reference digests")
	fs.StringVar(&c.out, "out", ".bench_build", "directory the span dump is written to")
	fs.BoolVar(&writeGolden, "write-golden", false, "recompute the reference digests into -golden and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if writeGolden {
		if err := writeGoldenFile(ctx, c); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	bench, ok := workloads[c.workload]
	if !ok || !(c.seconds > 0) || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintln(stderr, "perfbench: want --workload reproduce|simulate-hot|sweep-mixed, --seed N, --seconds > 0, --trace 0|1")
		return 2
	}
	c.seed = foldSeed(c.seed)
	c.trace = traceFlag == 1
	g, err := loadGolden(c.golden)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := &env{bin: c.bin, golden: g, seed: c.seed, workers: runtime.NumCPU(), tally: &tally{}}
	o := &outcome{metrics: map[string]metric{}, samples: map[string]int{}, tally: e.tally}
	if err := bench(ctx, e, c, o); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return report(c, e, o, stdout, stderr)
}

// report prints the environment stamp and sample counts, then the
// result line, and fails the run if any op failed.
func report(c config, e *env, o *outcome, stdout, stderr io.Writer) int {
	t := o.tally
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stderr, "%-32s %14s %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		m := o.metrics[n]
		fmt.Fprintf(stderr, "%-32s %14.6g %-6s %8d\n", n, m.Value, m.Unit, o.samples[n])
	}
	fmt.Fprintf(stderr, "%-32s %14.6g %-6s %8d\n", "fail_ratio", t.ratio(), "ratio", t.attempted)
	stamp := map[string]any{
		"env":        envStamp(c, e),
		"samples":    o.samples,
		"fail_ratio": t.ratio(),
		"failures":   t.kinds,
	}
	b, _ := json.Marshal(map[string]any{"report": stamp})
	fmt.Fprintln(stdout, string(b))
	correct := t.failed == 0 && t.attempted > 0
	for _, m := range o.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			correct = false
		}
	}
	b, _ = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(t.attempted, 1), t.failed, o.metrics})
	fmt.Fprintln(stdout, string(b))
	if !correct {
		return 1
	}
	return 0
}

// envStamp records what the numbers were measured on.
func envStamp(c config, e *env) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     sourceID(),
		"workload":   c.workload,
		"seed":       c.seed,
		"seconds":    c.seconds,
		"traced":     c.trace,
		"workers":    e.workers,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceID names the code measured: the git commit when the checkout is
// a repository, else a digest of the module's Go sources (a benchmark
// checkout is a plain tree).
func sourceID() string {
	if b, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(b))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if h, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return strings.TrimSpace(string(h))
			}
		} else {
			return ref
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	var all []byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		all = append(all, f...)
		all = append(all, b...)
	}
	return "tree:" + digest(all)[:16]
}

// ------------------------------------------------------------ workloads

func benchReproduce(ctx context.Context, e *env, c config, o *outcome) error {
	d := seconds(c.seconds)
	if !c.trace {
		// Reaching the first table takes milliseconds, so take many.
		var setups []float64
		for i := 0; i < 15; i++ {
			s, err := reproduceSetup(ctx, e)
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, s.Seconds())
		}
		ph, err := reproduceLoop(ctx, e, d, nil)
		if err != nil {
			return err
		}
		endToEnd(o, setups, ph)
		return nil
	}
	untraced, err := reproduceLoop(ctx, e, d/2, nil)
	if err != nil {
		return err
	}
	rec := newRecorder()
	traced, err := reproduceLoop(ctx, e, d/2, rec)
	if err != nil {
		return err
	}
	// The fleet is not part of this workload; it is started only so the
	// service layers' probes measure the same live daemons on every
	// workload. Its counters come from one pass over the warm set.
	f, _, err := setUpFleet(ctx, e)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer f.stop()
	hc := e.client()
	defer hc.CloseIdleConnections()
	before, err := scrapeAll(hc, f.children())
	if err != nil {
		return err
	}
	aff, err := hotLoop(ctx, e, f, 0, new(atomic.Int64), rec)
	if err != nil {
		return err
	}
	after, err := scrapeAll(hc, f.children())
	if err != nil {
		return err
	}
	return perLayer(ctx, e, c, o, f, rec, untraced, traced, aff, before, after)
}

// serviceLoop is the timed phase of a service workload. count numbers
// its units across the whole run.
type serviceLoop func(ctx context.Context, e *env, f *fleet, d time.Duration, count *atomic.Int64, rec *recorder) (phase, error)

func benchService(loop serviceLoop) func(context.Context, *env, config, *outcome) error {
	return func(ctx context.Context, e *env, c config, o *outcome) error {
		return serviceRun(ctx, e, c, o, loop)
	}
}

func serviceRun(ctx context.Context, e *env, c config, o *outcome, loop serviceLoop) error {
	d := seconds(c.seconds)
	var f *fleet
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	// Set up several times and keep the last fleet: setup_s is the median.
	var setups []float64
	for i := 0; i < 3; i++ {
		if f != nil {
			f.stop()
		}
		var s time.Duration
		var err error
		if f, s, err = setUpFleet(ctx, e); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, s.Seconds())
		if c.trace {
			break
		}
	}
	var count atomic.Int64
	if !c.trace {
		ph, err := loop(ctx, e, f, d, &count, nil)
		if err != nil {
			return err
		}
		endToEnd(o, setups, ph)
		return nil
	}
	untraced, err := loop(ctx, e, f, d/2, &count, nil)
	if err != nil {
		return err
	}
	hc := e.client()
	defer hc.CloseIdleConnections()
	before, err := scrapeAll(hc, f.children())
	if err != nil {
		return err
	}
	rec := newRecorder()
	traced, err := loop(ctx, e, f, d/2, &count, rec)
	if err != nil {
		return err
	}
	after, err := scrapeAll(hc, f.children())
	if err != nil {
		return err
	}
	return perLayer(ctx, e, c, o, f, rec, untraced, traced, traced, before, after)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// endToEnd fills the untraced metrics from the setup samples and the
// timed phase.
func endToEnd(o *outcome, setups []float64, ph phase) {
	o.put("setup_s", "s", median(setups), len(setups))
	o.put("wall_s", "s", median(ph.units), len(ph.units))
	o.put("cells_per_s", "1/s", ph.cellsPerSec(), ph.cells)
	o.put("latency_p50_ms", "ms", quantile(ph.lat, 0.50), len(ph.lat))
	o.put("latency_p99_ms", "ms", windowedQuantile(ph.lat, 0.99, p99Window), len(ph.lat))
	o.put("cpu_ms_per_cell", "ms", median(ph.cpuMS), len(ph.cpuMS))
	o.put("peak_rss_mb", "MB", median(ph.rssMB), len(ph.rssMB))
	o.put("ok_ratio", "ratio", 1-o.tally.ratio(), o.tally.attempted)
}

// perLayer runs the layer probes and fills the traced metrics. aff is
// the phase whose warm requests give fleet.affinity_ratio; before and
// after bracket the fleet traffic the counters are taken over.
func perLayer(ctx context.Context, e *env, c config, o *outcome, f *fleet, rec *recorder,
	untraced, traced, aff phase, before, after series) error {
	p := &layerProbes{ctx: ctx, rec: rec, workers: e.workers, out: map[string]float64{}}
	for _, step := range []func() error{p.sim, p.mpisim, p.core, p.runnerHit, p.codec,
		func() error { return p.handler(f, e.golden) }} {
		if err := step(); err != nil {
			return err
		}
	}
	st, err := p.experiments()
	if err != nil {
		return err
	}
	serviceDeltas(before, after, p.set)
	if c.workload == "reproduce" {
		// The reproduce workload's engine is the in-process replay's:
		// the same cell stream as the child's, on the same engine type.
		p.set("runner.runs", float64(st.Runs))
		p.set("runner.hits", float64(st.Hits))
		p.set("runner.hit_ratio", ratio(float64(st.Hits), float64(st.Runs+st.Hits)))
		p.set("runner.evictions", float64(st.Evictions))
	}
	p.set("fleet.affinity_ratio", ratio(float64(aff.warmCached), float64(aff.warmAsked)))
	p.set("trace.overhead_ratio", ratio(traced.cellsPerSec(), untraced.cellsPerSec()))
	for name, v := range p.out {
		unit, ok := layerUnits[name]
		if !ok {
			return fmt.Errorf("per-layer metric %s has no unit", name)
		}
		o.put(name, unit, v, 1)
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(c.out, fmt.Sprintf("spans-%s-seed%d.json", c.workload, c.seed))
	if err := rec.write(path); err != nil {
		return err
	}
	rec.summary(os.Stderr)
	return nil
}

// layerUnits is the unit of every per-layer metric.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"sim.event_ns": "ns", "sim.proc_switch_ns": "ns",
		"mpisim.pingpong_ns": "ns", "mpisim.pingpong_allocs": "count",
		"core.allocs_per_run": "count", "core.alloc_kb_per_run": "KiB",
		"core.host_ns_per_msg": "ns", "core.virt_s_per_host_s": "ratio",
		"mpisim.msgs_per_run": "count", "netsim.bytes_per_run": "B",
		"node.transitions_per_run": "count", "sched.daemon_moves_per_run": "count",
		"runner.runs": "count", "runner.hits": "count", "runner.hit_ratio": "ratio",
		"runner.evictions": "count", "runner.hit_us": "us",
		"sweep.encode_ns_per_record": "ns", "sweep.decode_ns_per_record": "ns",
		"sweep.bytes_per_record": "B", "server.plan_us_per_cell": "us",
		"server.handler_us": "us", "server.loopback_us": "us",
		"server.request_ms_mean": "ms", "server.shed": "count",
		"fleet.loopback_us": "us", "fleet.hop_us": "us",
		"fleet.backend_cell_ms_mean": "ms", "fleet.affinity_ratio": "ratio",
		"fleet.retried": "count", "fleet.hedged": "count", "fleet.local": "count",
		"trace.overhead_ratio": "ratio",
	}
	for _, code := range warmCodes {
		u["core.run_ms."+code] = "ms"
	}
	for _, id := range []string{"t2", "f2", "f9", "f11", "f12", "f14", "a2", "a3",
		"x1", "x2", "x3", "x4", "x5", "x6", "x7"} {
		u["experiments."+id+"_ms"] = "ms"
	}
	return u
}()

// writeGoldenFile recomputes the reference digests: the warm cells'
// result objects in this process (so the served bytes are checked
// against an independent encoding), and one reproduce run's stdout.
func writeGoldenFile(ctx context.Context, c config) error {
	g := golden{Warm: map[string]string{}}
	for i := 0; i < warmSize; i++ {
		cell, err := warmSpec(i).Cell()
		if err != nil {
			return err
		}
		b, err := wireResult(cell)
		if err != nil {
			return err
		}
		g.Warm[warmName(i)] = digest(b)
	}
	e := &env{bin: c.bin, workers: runtime.NumCPU()}
	_, out, err := runReproduce(ctx, e, "-only", "all")
	if err != nil {
		return err
	}
	if engineLine.Find(out) == nil {
		return errors.New("reproduce printed no sweep-engine line")
	}
	g.Reproduce = digest(normaliseReproduce(out))
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(c.golden, append(b, '\n'), 0o644)
}
