package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// TraceJSON is one finished trace as /debug/traces serves it.
type TraceJSON struct {
	TraceID      string     `json:"trace_id"`
	Process      string     `json:"process"`
	Root         string     `json:"root"`
	Start        time.Time  `json:"start"`
	DurationMS   float64    `json:"duration_ms"`
	SpansDropped int        `json:"spans_dropped,omitempty"`
	Spans        []SpanData `json:"spans"`
}

// Dump is the /debug/traces response envelope.
type Dump struct {
	Process string      `json:"process"`
	Enabled bool        `json:"enabled"`
	Traces  []TraceJSON `json:"traces"`
}

// Snapshot copies the ring's finished traces whose root duration is at
// least minMS, newest first. Safe (and empty) on a nil tracer.
func (t *Tracer) Snapshot(minMS float64) []TraceJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	traces := make([]*Trace, 0, t.size)
	for i := 0; i < t.size; i++ {
		// Walk backwards from the most recently stored slot.
		tr := t.ring[((t.next-1-i)%len(t.ring)+len(t.ring))%len(t.ring)]
		if tr != nil {
			traces = append(traces, tr)
		}
	}
	t.mu.Unlock()

	out := make([]TraceJSON, 0, len(traces))
	for _, tr := range traces {
		tr.mu.Lock()
		if tr.durationMS < minMS {
			tr.mu.Unlock()
			continue
		}
		spans := make([]SpanData, len(tr.spans))
		copy(spans, tr.spans)
		tj := TraceJSON{
			TraceID:      tr.id,
			Process:      tr.proc,
			Root:         tr.root,
			Start:        tr.start,
			DurationMS:   tr.durationMS,
			SpansDropped: tr.dropped,
			Spans:        spans,
		}
		tr.mu.Unlock()
		// Render spans in start order so a trace reads as a timeline.
		sort.SliceStable(tj.Spans, func(i, j int) bool {
			return tj.Spans[i].Start.Before(tj.Spans[j].Start)
		})
		out = append(out, tj)
	}
	return out
}

// DebugHandler serves the ring as JSON: GET /debug/traces?min_ms=50
// returns finished traces at least that slow, newest first — the
// slow-cell exemplar query. Works on a nil tracer (enabled=false, no
// traces) so daemons can register the route unconditionally.
func (t *Tracer) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		minMS := 0.0
		if q := r.URL.Query().Get("min_ms"); q != "" {
			v, err := strconv.ParseFloat(q, 64)
			if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				http.Error(w, "min_ms: want a finite non-negative number", http.StatusBadRequest)
				return
			}
			minMS = v
		}
		d := Dump{Enabled: t != nil, Traces: t.Snapshot(minMS)}
		if t != nil {
			d.Process = t.proc
		}
		if d.Traces == nil {
			d.Traces = []TraceJSON{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(d)
	})
}
