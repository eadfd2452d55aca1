package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

// phase is what one timed loop measured.
type phase struct {
	cells int           // cells answered correctly
	wall  time.Duration // the whole timed loop
	units []float64     // seconds per workload unit (pass, grid, run)
	lat   []float64     // ms per latency sample
	// CPU ms per cell and peak RSS of the served processes, one sample
	// per reproduce run, one for a whole service phase.
	cpuMS []float64
	rssMB []float64
	// Warm cells asked and answered from a cache, for fleet.affinity_ratio.
	warmAsked, warmCached int
}

func (p phase) cellsPerSec() float64 { return float64(p.cells) / p.wall.Seconds() }

// env is what every workload needs: the built binaries, the references
// and the run's knobs.
type env struct {
	bin     string
	golden  *golden
	seed    int64
	workers int
	tally   *tally
}

func (e *env) client() *http.Client {
	// One client per workload, nproc connections: the closed loop runs
	// one goroutine per connection.
	return &http.Client{Transport: loopbackTransport(e.workers)}
}

// ---------------------------------------------------------- reproduce

// reproducePass runs `reproduce -only all` at the paper's class C on a
// cold in-memory cache and checks its stdout against the golden digest.
type reproducePass struct {
	wall       time.Duration
	cpu        time.Duration
	rssMB      float64
	runs, hits int
}

func runReproduce(ctx context.Context, e *env, args ...string) (reproducePass, []byte, error) {
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, "reproduce"),
		append([]string{"-class", "C", "-workers", strconv.Itoa(e.workers)}, args...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	p := reproducePass{wall: time.Since(start)}
	if err != nil {
		if ctx.Err() != nil {
			return p, nil, ctx.Err()
		}
		return p, nil, fail("status", "reproduce: %v: %s", err, bytes.TrimSpace(errb.Bytes()))
	}
	st := cmd.ProcessState
	p.cpu = st.UserTime() + st.SystemTime()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		p.rssMB = float64(ru.Maxrss) / 1024
	}
	return p, out.Bytes(), nil
}

func reproduceAll(ctx context.Context, e *env) (reproducePass, error) {
	p, out, err := runReproduce(ctx, e, "-only", "all")
	if err != nil {
		return p, err
	}
	if got := digest(normaliseReproduce(out)); got != e.golden.Reproduce {
		return p, fail("digest", "reproduce stdout %s, want %s", got[:12], e.golden.Reproduce[:12])
	}
	m := engineLine.FindSubmatch(out)
	if m == nil {
		return p, fail("no_trailer", "reproduce printed no sweep-engine line")
	}
	p.runs, _ = strconv.Atoi(string(m[1]))
	p.hits, _ = strconv.Atoi(string(m[2]))
	return p, nil
}

// reproduceSetup is the researcher's time to a first table: start the
// binary and print Table 1.
func reproduceSetup(ctx context.Context, e *env) (time.Duration, error) {
	p, out, err := runReproduce(ctx, e, "-only", "t1")
	if err != nil {
		return 0, err
	}
	if !bytes.HasPrefix(out, []byte("Table 1:")) {
		return 0, fmt.Errorf("reproduce -only t1 printed no Table 1")
	}
	return p.wall, nil
}

// reproduceLoop runs whole reproductions back to back until d elapsed.
func reproduceLoop(ctx context.Context, e *env, d time.Duration, rec *recorder) (phase, error) {
	var ph phase
	start := time.Now()
	for len(ph.units) == 0 || time.Since(start) < d {
		sp := rec.start(ref{}, "reproduce.run")
		p, err := reproduceAll(ctx, e)
		sp.end()
		if ctx.Err() != nil {
			return ph, ctx.Err()
		}
		e.tally.add(1, errOrNil(err)...)
		ph.units = append(ph.units, p.wall.Seconds())
		ph.lat = append(ph.lat, float64(p.wall)/1e6)
		if err == nil {
			ph.cells += p.runs + p.hits
			ph.cpuMS = append(ph.cpuMS, float64(p.cpu)/1e6/float64(p.runs+p.hits))
			ph.rssMB = append(ph.rssMB, p.rssMB)
		}
	}
	ph.wall = time.Since(start)
	return ph, nil
}

func errOrNil(err error) []error {
	if err == nil {
		return nil
	}
	return []error{err}
}

// ------------------------------------------------------ service fleet

// setUpFleet starts the fleet and warms the hot set through the
// gateway, checking every warm result against its golden digest.
func setUpFleet(ctx context.Context, e *env) (*fleet, time.Duration, error) {
	start := time.Now()
	f, err := startFleet(ctx, e.bin, e.workers)
	if err != nil {
		return nil, 0, err
	}
	hc := e.client()
	defer hc.CloseIdleConnections()
	bodies := warmBodies()
	errs := make(chan error, warmSize)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < warmSize; i = int(next.Add(1) - 1) {
				if _, err := simulateOnce(ctx, hc, f.gw.url, bodies[i], e.golden.warm(i)); err != nil {
					errs <- fmt.Errorf("warm %s: %w", warmName(i), err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		f.stop()
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

func warmBodies() [][]byte {
	bs := make([][]byte, warmSize)
	for i := range bs {
		b, err := json.Marshal(server.SimulateRequest{JobSpec: warmSpec(i)})
		if err != nil {
			panic(err) // a static spec always marshals
		}
		bs[i] = b
	}
	return bs
}

// measureFleet wraps a timed loop with the served processes' CPU and
// peak RSS.
func measureFleet(f *fleet, loop func() (phase, error)) (phase, error) {
	c0, err := f.cpu()
	if err != nil {
		return phase{}, err
	}
	ph, err := loop()
	if err != nil {
		return ph, err
	}
	c1, err := f.cpu()
	if err != nil {
		return ph, err
	}
	ph.cpuMS = []float64{float64(c1-c0) / 1e6 / float64(ph.cells)}
	rss, err := f.peakRSSMB()
	ph.rssMB = []float64{rss}
	return ph, err
}

// hotLoop is simulate-hot's timed phase: passes over the warm set in a
// seed-shuffled order, e.workers closed-loop clients per pass.
func hotLoop(ctx context.Context, e *env, f *fleet, d time.Duration, pass *atomic.Int64, rec *recorder) (phase, error) {
	return measureFleet(f, func() (phase, error) {
		hc := e.client()
		defer hc.CloseIdleConnections()
		bodies := warmBodies()
		var ph phase
		var mu sync.Mutex
		start := time.Now()
		for len(ph.units) == 0 || time.Since(start) < d {
			order := rand.New(rand.NewSource(e.seed*7919 + pass.Add(1) - 1)).Perm(warmSize)
			pstart := time.Now()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < e.workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := int(next.Add(1) - 1); j < warmSize; j = int(next.Add(1) - 1) {
						i := order[j]
						sp := rec.start(ref{}, "gw.simulate")
						t0 := time.Now()
						cached, err := simulateOnce(ctx, hc, f.gw.url, bodies[i], e.golden.warm(i))
						t1 := time.Now()
						sp.endAt(t1)
						e.tally.add(1, errOrNil(err)...)
						mu.Lock()
						ph.lat = append(ph.lat, float64(t1.Sub(t0))/1e6)
						if err == nil {
							ph.cells++
							ph.warmAsked++
							if cached {
								ph.warmCached++
							}
						}
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			if ctx.Err() != nil {
				return ph, ctx.Err()
			}
			ph.units = append(ph.units, time.Since(pstart).Seconds())
		}
		ph.wall = time.Since(start)
		return ph, nil
	})
}

// mixedLoop is sweep-mixed's timed phase: sweepClients closed-loop
// clients each POST 64-cell grids to the gateway until d elapsed. grid
// numbers grids across the whole run, so every fresh key is used once.
func mixedLoop(ctx context.Context, e *env, f *fleet, d time.Duration, grid *atomic.Int64, rec *recorder) (phase, error) {
	return measureFleet(f, func() (phase, error) {
		hc := e.client()
		defer hc.CloseIdleConnections()
		var ph phase
		var mu sync.Mutex
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < sweepClients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil && time.Since(start) < d {
					k := int(grid.Add(1) - 1)
					cells := mixedGrid(e.seed, k)
					body, want := gridRequest(e.golden, cells)
					root := rec.start(ref{}, "gw.sweep")
					t0 := time.Now()
					var lat []float64
					warm, warmCached := 0, 0
					errs := sweepOnce(ctx, hc, f.gw.url, body, want, func(i int, at time.Time, cached bool) {
						lat = append(lat, float64(at.Sub(t0))/1e6)
						rec.add(root, "gw.sweep.record", t0, at)
						if !cells[i].fresh {
							warm++
							if cached {
								warmCached++
							}
						}
					})
					t1 := time.Now()
					root.endAt(t1)
					e.tally.add(len(cells), errs...)
					mu.Lock()
					ph.units = append(ph.units, t1.Sub(t0).Seconds())
					ph.lat = append(ph.lat, lat...)
					ph.cells += len(cells) - len(errs)
					ph.warmAsked += warm
					ph.warmCached += warmCached
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		ph.wall = time.Since(start)
		return ph, ctx.Err()
	})
}

// sweepClients is sweep-mixed's client count. One grid already keeps
// dvsgw's 16-cell fan-out in flight against the two backends' 8-slot
// admission gates; a second concurrent grid doubles the 429 sheds, each
// a 1 s Retry-After wait, until those waits alone set the latency tail.
const sweepClients = 1

// gridRequest is the /sweep body of a grid plus each cell's expected
// result digest.
func gridRequest(g *golden, cells []gridCell) ([]byte, []string) {
	req := server.SweepRequest{Jobs: make([]server.JobSpec, len(cells))}
	want := make([]string, len(cells))
	for i, c := range cells {
		req.Jobs[i] = c.spec
		want[i] = g.warm(c.twin)
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a static spec always marshals
	}
	return b, want
}
