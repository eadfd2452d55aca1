package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one served process the harness started: a dvsd backend or
// the dvsgw gateway. Its CPU and RSS are read from /proc, so the load
// generator's own cost never counts against the program.
type child struct {
	name string
	url  string // http://127.0.0.1:port
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
	logs *lockedWriter // stderr, for error reports
}

// startChild launches bin with args plus -addr on a loopback port and
// waits until GET /healthz answers 200. It takes port when that is free
// (0 = any free port). A port another process grabbed between probe and
// bind makes the child exit; that attempt is retried on any free port.
func startChild(ctx context.Context, name, bin string, port int, args ...string) (*child, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 || port == 0 || !portFree(port) {
			var err error
			if port, err = freePort(); err != nil {
				return nil, err
			}
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		c := &child{name: name, url: "http://" + addr, done: make(chan struct{}), logs: &lockedWriter{}}
		c.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		c.cmd.Stdout = io.Discard
		c.cmd.Stderr = c.logs
		// Pdeathsig is the backstop for a harness killed with SIGKILL,
		// which runs none of the teardown below.
		c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		if err := c.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		go func() { _ = c.cmd.Wait(); close(c.done) }()
		fmt.Fprintf(logw, "perfbench: started %s pid %d on %s\n", name, c.pid(), c.url)
		if last = c.awaitHealthy(ctx, 10*time.Second); last == nil {
			return c, nil
		}
		c.stop()
	}
	return nil, last
}

// awaitHealthy polls /healthz until it answers 200, the child exits, or
// the budget runs out.
func (c *child) awaitHealthy(ctx context.Context, budget time.Duration) error {
	hc := &http.Client{Transport: loopbackTransport(1), Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(budget)
	for {
		resp, err := hc.Get(c.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.done:
			return fmt.Errorf("%s exited during start-up: %s", c.name, strings.TrimSpace(c.stderr()))
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v", c.name, budget)
		}
	}
}

// stop sends SIGTERM (the daemons drain and exit 0), escalates to
// SIGKILL after a grace period, and returns once the process is reaped.
func (c *child) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) stderr() string {
	c.logs.mu.Lock()
	defer c.logs.mu.Unlock()
	return c.logs.buf.String()
}

// lockedWriter keeps the first 64 KiB a child writes to stderr.
type lockedWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.buf.Len() < 64<<10 {
		l.buf.Write(p)
	}
	return len(p), nil
}

// logw receives one line per started child, naming its pid and address.
var logw io.Writer = os.Stderr

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func portFree(port int) bool {
	ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port))
	if err != nil {
		return false
	}
	ln.Close()
	return true
}

// backendPorts are the dvsd ports tried first. dvsgw places cells on a
// consistent-hash ring of its peers' URLs, so fixed URLs give every run
// the same cell-to-backend split; random ports would re-deal the load
// balance, and with it the shed rate, on each run. Both lie below the
// Linux ephemeral range.
var backendPorts = [2]int{28301, 28302}

// fleet is the served system of the service workloads: two dvsd
// backends behind one dvsgw gateway, each at its shipped defaults
// except for addresses, peers and -workers.
type fleet struct {
	backends []*child
	gw       *child
	once     sync.Once
}

func startFleet(ctx context.Context, bin string, workers int) (*fleet, error) {
	f := &fleet{}
	w := strconv.Itoa(workers)
	for i := 0; i < 2; i++ {
		c, err := startChild(ctx, fmt.Sprintf("dvsd-%d", i), filepath.Join(bin, "dvsd"), backendPorts[i], "-workers", w)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, c)
	}
	peers := f.backends[0].url + "," + f.backends[1].url
	gw, err := startChild(ctx, "dvsgw", filepath.Join(bin, "dvsgw"), 0, "-peers", peers, "-workers", w)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.gw = gw
	return f, nil
}

// children lists every live process of the fleet, gateway first.
func (f *fleet) children() []*child {
	var cs []*child
	if f.gw != nil {
		cs = append(cs, f.gw)
	}
	return append(cs, f.backends...)
}

// stop tears the fleet down, gateway first so it sends nothing to a
// backend that is already gone. Safe to call more than once.
func (f *fleet) stop() {
	f.once.Do(func() {
		for _, c := range f.children() {
			c.stop()
		}
	})
}

// cpuTicks is the user+sys CPU a process has used, in clock ticks.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	fs := strings.Fields(s[i+1:])
	if len(fs) < 13 {
		return 0, errors.New("short /proc stat")
	}
	u, err1 := strconv.ParseInt(fs[11], 10, 64)
	st, err2 := strconv.ParseInt(fs[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return u + st, nil
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc accounting.
const clockTick = 10 * time.Millisecond

// peakRSSKB is the process's high-water resident set (VmHWM).
func peakRSSKB(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// fleetCPU sums the CPU of every fleet process.
func (f *fleet) cpu() (time.Duration, error) {
	var sum int64
	for _, c := range f.children() {
		t, err := cpuTicks(c.pid())
		if err != nil {
			return 0, fmt.Errorf("%s cpu: %w", c.name, err)
		}
		sum += t
	}
	return time.Duration(sum) * clockTick, nil
}

// peakRSSMB sums the fleet processes' peak resident sets.
func (f *fleet) peakRSSMB() (float64, error) {
	var sum int64
	for _, c := range f.children() {
		kb, err := peakRSSKB(c.pid())
		if err != nil {
			return 0, fmt.Errorf("%s rss: %w", c.name, err)
		}
		sum += kb
	}
	return float64(sum) / 1024, nil
}

// series is one /metrics scrape: full series text ("name{labels}") to
// value.
type series map[string]float64

func scrape(hc *http.Client, url string) (series, error) {
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	out := series{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out, sc.Err()
}

// sum adds every series whose name is metric and whose labels contain
// each of the given label fragments (e.g. `status="429"`).
func (s series) sum(metric string, labels ...string) float64 {
	var t float64
next:
	for k, v := range s {
		name, lab, _ := strings.Cut(k, "{")
		if name != metric {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(lab, l) {
				continue next
			}
		}
		t += v
	}
	return t
}

// scrapeAll merges one scrape of every listed process.
func scrapeAll(hc *http.Client, cs []*child) (series, error) {
	all := series{}
	for _, c := range cs {
		s, err := scrape(hc, c.url)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		for k, v := range s {
			all[k] += v
		}
	}
	return all, nil
}

// loopbackTransport dials only literal loopback addresses (no resolver
// is ever consulted) and never goes through a proxy.
func loopbackTransport(conns int) *http.Transport {
	return &http.Transport{
		Proxy:               nil,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
	}
}
