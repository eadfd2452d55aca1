package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// binDir holds the harness and the programs it drives, built once.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		".", "repro/cmd/reproduce", "repro/cmd/dvsd", "repro/cmd/dvsgw")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// harness must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSelfTest runs each workload briefly, untraced and traced, and
// checks that the result line carries exactly the metrics BENCHMARK.json
// lists, with the same units. simulate-hot is run too, though
// BENCHMARK.json does not list it.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	names := []string{"simulate-hot"}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", name, "--seed", "3", "--seconds", "0.5",
					"--trace", trace, "-bin", binDir, "-golden", "testdata/golden.json",
					"-out", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestMovesCoverPerLayer checks that every per-layer metric states which
// end-to-end metric it should move, on which workload.
func TestMovesCoverPerLayer(t *testing.T) {
	spec := loadSpec(t)
	b, err := os.ReadFile("moves.json")
	if err != nil {
		t.Fatal(err)
	}
	var moves map[string][]string
	if err := json.Unmarshal(b, &moves); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = true
	}
	wls := map[string]bool{}
	for _, w := range spec.Workloads {
		wls[w.Name] = true
	}
	for _, m := range spec.PerLayer {
		if unit, ok := layerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("%s: harness unit %q, BENCHMARK.json %q", m.Name, unit, m.Unit)
		}
		mv, ok := moves[m.Name]
		if !ok {
			t.Errorf("%s has no moves entry", m.Name)
		}
		for _, s := range mv {
			metric, wl, _ := strings.Cut(s, "@")
			if !e2e[metric] || !wls[wl] {
				t.Errorf("%s: moves names unknown %q", m.Name, s)
			}
		}
	}
	if len(moves) != len(spec.PerLayer) {
		t.Errorf("moves.json has %d entries, per_layer %d", len(moves), len(spec.PerLayer))
	}
}

// TestSeedSteadiness: two seeds give sweep-mixed grids with the same
// code × strategy multiset and the same warm/fresh split, and their
// fresh cache keys are disjoint from each other and from the warm set.
func TestSeedSteadiness(t *testing.T) {
	warm := map[string]bool{}
	for i := 0; i < warmSize; i++ {
		c, err := warmSpec(i).Cell()
		if err != nil {
			t.Fatal(err)
		}
		warm[c.Key] = true
	}
	if len(warm) != warmSize {
		t.Fatalf("warm set has %d distinct keys, want %d", len(warm), warmSize)
	}
	mix := func(seed int64, k int) (pairs []string, fresh map[string]bool) {
		fresh = map[string]bool{}
		for _, gc := range mixedGrid(seed, k) {
			s := gc.spec
			pairs = append(pairs, fmt.Sprintf("%s|%s|%g|%s|fresh=%v",
				s.Workload.Code, s.Strategy.Kind, s.Strategy.FreqMHz, s.Strategy.Preset, gc.fresh))
			c, err := s.Cell()
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case gc.fresh && (warm[c.Key] || fresh[c.Key]):
				t.Fatalf("seed %d grid %d: fresh key repeats", seed, k)
			case gc.fresh:
				fresh[c.Key] = true
			case !warm[c.Key]:
				t.Fatalf("seed %d grid %d: warm cell outside the warm set", seed, k)
			}
		}
		sort.Strings(pairs)
		return pairs, fresh
	}
	ref, _ := mix(1, 0)
	seen := map[string]string{}
	for _, seed := range []int64{1, 2, maxSeed - 1} {
		for k := 0; k < 4; k++ {
			pairs, fresh := mix(seed, k)
			if strings.Join(pairs, ",") != strings.Join(ref, ",") {
				t.Fatalf("seed %d grid %d: code × strategy multiset differs", seed, k)
			}
			if len(fresh) != gridSize/2 {
				t.Fatalf("seed %d grid %d: %d fresh cells, want %d", seed, k, len(fresh), gridSize/2)
			}
			for key := range fresh {
				if prev, dup := seen[key]; dup {
					t.Fatalf("fresh key of seed %d grid %d already used by %s", seed, k, prev)
				}
				seen[key] = fmt.Sprintf("seed %d grid %d", seed, k)
			}
		}
	}
}

// TestFoldSeed: every integer is a valid --seed, and seeds already in
// range keep their inputs.
func TestFoldSeed(t *testing.T) {
	for _, c := range []struct{ in, want int64 }{
		{0, 0}, {7, 7}, {maxSeed - 1, maxSeed - 1}, {maxSeed, 0},
		{maxSeed + 5, 5}, {-1, maxSeed - 1}, {math.MaxInt64, math.MaxInt64 % maxSeed},
		{math.MinInt64, 0},
	} {
		if got := foldSeed(c.in); got != c.want {
			t.Errorf("foldSeed(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestFailuresCounted drives the op functions against a stub handler: a
// 429, a transport error, an error record and a missing trailer each
// count as failed ops, and a run with any failure is not correct.
func TestFailuresCounted(t *testing.T) {
	good := json.RawMessage(`{"name":"x"}`)
	want := digest(good)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/simulate":
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":{"code":"queue_full"}}`)
		case "/sweep":
			body, _ := io.ReadAll(r.Body)
			fmt.Fprintf(w, "{\"index\":0,\"result\":%s}\n", good)
			fmt.Fprintln(w, `{"index":1,"error":{"code":"sim_failed"}}`)
			if string(body) != "cut" {
				fmt.Fprintln(w, `{"done":true,"jobs":2}`)
			}
		}
	}))
	defer stub.Close()
	dead := closedURL(t)
	ctx := context.Background()
	hc := &http.Client{Transport: loopbackTransport(1)}
	tl := &tally{}

	_, err := simulateOnce(ctx, hc, stub.URL, []byte(`{}`), want)
	tl.add(1, errOrNil(err)...)
	_, err = simulateOnce(ctx, hc, dead, []byte(`{}`), want)
	tl.add(1, errOrNil(err)...)
	ok := 0
	errs := sweepOnce(ctx, hc, stub.URL, []byte(`{}`), []string{want, want},
		func(int, time.Time, bool) { ok++ })
	tl.add(2, errs...)
	if ok != 1 {
		t.Errorf("%d good records seen, want 1", ok)
	}
	tl.add(2, sweepOnce(ctx, hc, stub.URL, []byte("cut"), []string{want, want},
		func(int, time.Time, bool) {})...)
	wantKinds := map[string]int{"status": 1, "transport": 1, "error_record": 1, "no_trailer": 2}
	for k, n := range wantKinds {
		if tl.kinds[k] != n {
			t.Errorf("%s failures = %d, want %d (all: %v)", k, tl.kinds[k], n, tl.kinds)
		}
	}
	if tl.attempted != 6 || tl.failed != 5 {
		t.Errorf("attempted %d failed %d, want 6 and 5", tl.attempted, tl.failed)
	}

	o := &outcome{metrics: map[string]metric{}, samples: map[string]int{}, tally: tl}
	var out bytes.Buffer
	if code := report(config{}, &env{}, o, &out, io.Discard); code == 0 {
		t.Error("a run with failed ops exited 0")
	}
	if !strings.Contains(lastLine(out.String()), `"correct":false`) {
		t.Errorf("result line does not say correct=false: %s", lastLine(out.String()))
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// closedURL is a loopback URL nothing listens on.
func closedURL(t *testing.T) string {
	t.Helper()
	port, err := freePort()
	if err != nil {
		t.Fatal(err)
	}
	return "http://127.0.0.1:" + strconv.Itoa(port)
}

// proc is a child the harness reported starting.
type proc struct {
	pid int
	url string
}

var startedLine = regexp.MustCompile(`(?m)^perfbench: started \S+ pid (\d+) on (\S+)$`)

// startedProcs parses the harness's start-up log lines.
func startedProcs(log string) []proc {
	var ps []proc
	for _, m := range startedLine.FindAllStringSubmatch(log, -1) {
		pid, _ := strconv.Atoi(m[1])
		ps = append(ps, proc{pid, m[2]})
	}
	return ps
}

// assertGone checks that a child has been reaped and its port refuses
// connections.
func assertGone(t *testing.T, pid int, rawURL string) {
	t.Helper()
	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Errorf("pid %d still exists (kill 0: %v)", pid, err)
	}
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := net.DialTimeout("tcp", u.Host, time.Second); err == nil {
		c.Close()
		t.Errorf("%s still accepts connections", rawURL)
	}
}

func assertLoopback(t *testing.T, rawURL string) {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	if ip := net.ParseIP(u.Hostname()); ip == nil || !ip.IsLoopback() {
		t.Errorf("%s is not a literal loopback address", rawURL)
	}
}

// TestFleetTeardown: the fleet listens on literal loopback addresses
// only, and stop leaves no process or listening port behind — after a
// clean run and after a failed start-up.
func TestFleetTeardown(t *testing.T) {
	ctx := context.Background()
	f, err := startFleet(ctx, binDir, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ps []proc
	for _, c := range f.children() {
		assertLoopback(t, c.url)
		ps = append(ps, proc{c.pid(), c.url})
	}
	f.stop()
	f.stop() // idempotent
	for _, p := range ps {
		assertGone(t, p.pid, p.url)
	}

	// A gateway that cannot start must not strand the backends.
	broken := t.TempDir()
	data, err := os.ReadFile(filepath.Join(binDir, "dvsd"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(broken, "dvsd"), data, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(broken, "dvsgw"), []byte("#!/bin/sh\nexit 3\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	logw = &log
	defer func() { logw = os.Stderr }()
	if _, err := startFleet(ctx, broken, 1); err == nil {
		t.Fatal("startFleet succeeded without a working gateway")
	}
	started := startedProcs(log.String())
	if len(started) < 3 {
		t.Fatalf("saw %d started processes, want the two backends and gateway attempts", len(started))
	}
	for _, p := range started {
		assertGone(t, p.pid, p.url)
	}
}

// TestInterruptTearsDown sends SIGINT to a running benchmark: it must
// exit non-zero without a result line, leaving no child or port behind.
func TestInterruptTearsDown(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the whole fleet")
	}
	cmd := exec.Command(filepath.Join(binDir, "perfbench"), "--workload", "simulate-hot",
		"--seed", "1", "--seconds", "60", "-bin", binDir, "-golden", "testdata/golden.json",
		"-out", t.TempDir())
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var ps []proc
	sc := bufio.NewScanner(stderr)
	for len(ps) < 3 && sc.Scan() {
		ps = append(ps, startedProcs(sc.Text())...)
	}
	if len(ps) < 3 {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("benchmark reported %d started processes", len(ps))
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, stderr)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatal("benchmark did not exit within 60s of SIGINT")
	}
	if err == nil {
		t.Error("interrupted benchmark exited 0")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Error("interrupted benchmark printed a result line")
	}
	for _, p := range ps {
		assertLoopback(t, p.url)
		assertGone(t, p.pid, p.url)
	}
}
