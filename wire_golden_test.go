package repro

// Wire goldens: the bytes dvsd and dvsgw put on the wire for a fixed set
// of requests, pinned in testdata/wire. Both daemons must produce the
// same transcript for every request, so a refactor of either HTTP front
// (or of the sweep pipeline under them) proves it changed nothing.
// Regenerate after an intentional wire change with
//
//	go test -run TestWireGolden -update .

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/server"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens from the current behaviour")

const (
	goldenSim = `{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"external","freq_mhz":600}}`
	// goldenGrid is 2 codes × 4 strategies = 8 class-S cells.
	goldenGrid = `{"workloads":[{"code":"FT","class":"S","ranks":2},{"code":"CG","class":"S","ranks":2}],
 "strategies":[{"kind":"nodvs"},{"kind":"external","freq_mhz":600},{"kind":"external","freq_mhz":800},{"kind":"daemon"}]}`
	// goldenMaxJobs admits goldenGrid and rejects a 3×3 grid.
	goldenMaxJobs = 8
)

// wireDaemon is one HTTP front under test.
type wireDaemon struct {
	name string
	h    http.Handler
}

// wireDaemons builds a fresh dvsd and a fresh dvsgw over its own fresh
// httptest dvsd, with identical front settings: one admission slot (so
// a parked sweep saturates it), goldenMaxJobs, and a 2s Retry-After.
func wireDaemons(t *testing.T) []wireDaemon {
	t.Helper()
	dvsd := server.New(server.Options{
		Runner: runner.New(2), MaxInflight: 1, MaxJobs: goldenMaxJobs, RetryAfter: 2 * time.Second,
	})
	backend := httptest.NewServer(server.New(server.Options{Runner: runner.New(2)}).Handler())
	t.Cleanup(backend.Close)
	gw, err := fleet.New(fleet.Options{
		Peers: []string{backend.URL},
		Server: server.Options{
			Runner: runner.New(2), MaxInflight: 1, MaxJobs: goldenMaxJobs, RetryAfter: 2 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []wireDaemon{{"dvsd", dvsd.Handler()}, {"dvsgw", gw.Handler()}}
}

// exchange runs one request through h and renders the response as a
// transcript: request line, status, wire-relevant headers, body. NDJSON
// records are sorted by index (completion order is the scheduler's),
// with the trailer kept last.
func exchange(t *testing.T, h http.Handler, method, path, body string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s\nstatus: %d\ncontent-type: %s\n", method, path, rec.Code, rec.Header().Get("Content-Type"))
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		fmt.Fprintf(&b, "retry-after: %s\n", ra)
	}
	out := rec.Body.String()
	if rec.Header().Get("Content-Type") == "application/x-ndjson" {
		out = sortStream(t, out)
	}
	b.WriteString(out)
	return b.String()
}

func sortStream(t *testing.T, s string) string {
	t.Helper()
	lines := strings.SplitAfter(strings.TrimSuffix(s, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty NDJSON stream")
	}
	recs, trailer := lines[:len(lines)-1], lines[len(lines)-1]
	index := func(l string) int {
		var r struct{ Index int }
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("stream line is not JSON: %v\n%s", err, l)
		}
		return r.Index
	}
	sort.SliceStable(recs, func(i, j int) bool { return index(recs[i]) < index(recs[j]) })
	return strings.Join(recs, "") + trailer + "\n"
}

// parkedWriter is a ResponseWriter whose first body write blocks until
// released: a streaming sweep written to it stays admitted, holding its
// admission slot, for as long as the test needs a saturated gate.
type parkedWriter struct {
	hdr      http.Header
	once     sync.Once
	admitted chan struct{}
	release  chan struct{}
}

func (w *parkedWriter) Header() http.Header { return w.hdr }

func (w *parkedWriter) WriteHeader(code int) {
	if code == http.StatusOK {
		w.once.Do(func() { close(w.admitted) })
	}
}

func (w *parkedWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	<-w.release
	return len(p), nil
}

// saturate parks a one-cell sweep on h and returns the function that
// lets it finish.
func saturate(t *testing.T, h http.Handler) (release func()) {
	t.Helper()
	w := &parkedWriter{hdr: http.Header{}, admitted: make(chan struct{}), release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(`{"jobs":[`+goldenSim+`]}`)))
	}()
	select {
	case <-w.admitted:
	case <-done:
		t.Fatal("parking sweep was not admitted")
	case <-time.After(30 * time.Second):
		t.Fatal("parking sweep never reached its first write")
	}
	return func() {
		close(w.release)
		<-done
	}
}

// checkGolden compares got with testdata/<name> (a slash-separated
// path), or rewrites the file under -update. A mismatch reports both
// digests and the first differing line.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", filepath.FromSlash(name))
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<end of transcript>"
	}
	t.Fatalf("%s: sha256 %x, golden %x; first difference at line %d:\n got: %s\nwant: %s",
		path, sha256.Sum256([]byte(got)), sha256.Sum256(raw), i+1, line(gl), line(wl))
}

func TestWireGolden(t *testing.T) {
	type transcript struct{ simulate, sweep, errors string }
	var first *transcript
	for _, d := range wireDaemons(t) {
		var tr transcript
		tr.simulate = exchange(t, d.h, http.MethodPost, "/simulate", goldenSim)
		tr.sweep = exchange(t, d.h, http.MethodPost, "/sweep", goldenGrid)

		var errs bytes.Buffer
		for _, c := range []struct{ method, path, body string }{
			// 400: a spec error reported at its field path.
			{http.MethodPost, "/sweep", `{"jobs":[` + goldenSim + `,{"workload":{"code":"FT","class":"S"},"strategy":{"kind":"external","freq_mhz":700}}]}`},
			// 400: strict decoding rejects unknown fields.
			{http.MethodPost, "/simulate", `{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"nodvs"},"bogus":1}`},
			// 405: wrong verb on each endpoint kind.
			{http.MethodGet, "/simulate", ""},
			{http.MethodGet, "/sweep", ""},
			{http.MethodPost, "/healthz", ""},
			{http.MethodPost, "/metrics", ""},
			// 413: a grid over the per-request job bound.
			{http.MethodPost, "/sweep", `{"workloads":[{"code":"FT","class":"S","ranks":2},{"code":"CG","class":"S","ranks":2},{"code":"EP","class":"S","ranks":2}],
 "strategies":[{"kind":"nodvs"},{"kind":"external","freq_mhz":600},{"kind":"daemon"}]}`},
		} {
			errs.WriteString(exchange(t, d.h, c.method, c.path, c.body))
			errs.WriteString("\n")
		}
		// 429 with Retry-After on both admitted endpoints.
		release := saturate(t, d.h)
		errs.WriteString(exchange(t, d.h, http.MethodPost, "/simulate", goldenSim))
		errs.WriteString("\n")
		errs.WriteString(exchange(t, d.h, http.MethodPost, "/sweep", goldenGrid))
		release()
		tr.errors = errs.String()

		t.Run(d.name, func(t *testing.T) {
			checkGolden(t, "wire/simulate.golden", tr.simulate)
			checkGolden(t, "wire/sweep.golden", tr.sweep)
			checkGolden(t, "wire/errors.golden", tr.errors)
		})
		if first == nil {
			first = &tr
		} else if tr != *first {
			t.Errorf("%s transcript differs from dvsd's", d.name)
		}
	}
}
