package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/server"
)

// TestFrontsServeTheirSurface runs both daemons through one table: each
// must serve its request-latency histogram and request counters under
// its own series prefix, the series the benchmark harness scrapes, and
// exactly its /healthz keys.
func TestFrontsServeTheirSurface(t *testing.T) {
	_, backendURL := startBackend(t)
	common := []string{"status", "queue_depth", "queue_capacity", "workers", "cache_entries", "cache_bytes"}
	for _, tc := range []struct {
		name    string
		handler http.Handler
		health  []string // keys beyond common
		series  []string // series beyond the request histogram and counters
	}{
		{
			name:    "dvsd",
			handler: server.New(server.Options{Runner: runner.New(2)}).Handler(),
			series:  []string{"dvsd_runner_cache_hits_total ", "dvsd_queue_capacity 8"},
		},
		{
			name:    "dvsgw",
			handler: newGateway(t, Options{Peers: []string{backendURL}}).Handler(),
			health:  []string{"backends_live", "backends_total"},
			series: []string{
				"dvsgw_requests_retried_total 0",
				"dvsgw_local_fallback_cells_total 0",
				`dvsgw_backend_cell_seconds_count{backend="` + backendURL + `"} 1`,
				`dvsgw_backend_cell_seconds_sum{backend="` + backendURL + `"} `,
				"dvsgw_queue_capacity 8",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			tc.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/simulate", strings.NewReader(simFTS2)))
			if rec.Code != http.StatusOK {
				t.Fatalf("simulate status=%d body=%s", rec.Code, rec.Body.String())
			}

			rec = httptest.NewRecorder()
			tc.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			body := rec.Body.String()
			p := tc.name
			for _, want := range append([]string{
				p + `_requests_total{path="/simulate",status="200"} 1`,
				p + `_request_seconds_bucket{path="/simulate",le="+Inf"} 1`,
				p + `_request_seconds_sum{path="/simulate"} `,
				p + `_request_seconds_count{path="/simulate"} 1`,
			}, tc.series...) {
				if !strings.Contains(body, want) {
					t.Errorf("metrics missing %q", want)
				}
			}

			rec = httptest.NewRecorder()
			tc.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
			var h map[string]json.RawMessage
			if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
				t.Fatalf("healthz is not a JSON object: %v\n%s", err, rec.Body.String())
			}
			var got []string
			for k := range h {
				got = append(got, k)
			}
			want := append(append([]string{}, common...), tc.health...)
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("healthz keys %v, want %v", got, want)
			}
			if string(h["status"]) != `"ok"` {
				t.Errorf("healthz status %s", h["status"])
			}
		})
	}
}
