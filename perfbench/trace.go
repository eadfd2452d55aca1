package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer of the program.
// Spans live in memory until the run ends; the program itself is never
// instrumented, so every span wraps a public call from the outside.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder collects spans. A nil recorder is the untraced mode: every
// method is a no-op, so the timed loops carry no tracing cost.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// ref names an open span: pass it as the parent of child spans.
type ref struct {
	r      *recorder
	id     uint64
	parent uint64
	trace  uint64
	start  time.Time
	name   string
}

// start opens a span under parent; a zero parent starts a new trace.
func (r *recorder) start(parent ref, name string) ref {
	if r == nil {
		return ref{}
	}
	id := r.next.Add(1)
	tr := parent.trace
	if parent.id == 0 {
		tr = id
	}
	return ref{r: r, id: id, parent: parent.id, trace: tr, start: time.Now(), name: name}
}

// endAt closes the span at t (a caller that already read the clock
// passes its reading, so span and sample agree).
func (s ref) endAt(t time.Time) {
	if s.r == nil {
		return
	}
	sp := span{ID: s.id, Parent: s.parent, Trace: s.trace, Name: s.name,
		Start: int64(s.start.Sub(s.r.epoch)), End: int64(t.Sub(s.r.epoch))}
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, sp)
	s.r.mu.Unlock()
}

func (s ref) end() { s.endAt(time.Now()) }

// add records a finished span whose times the caller already took.
func (r *recorder) add(parent ref, name string, start, end time.Time) {
	s := r.start(parent, name)
	s.start = start
	s.endAt(end)
}

// write dumps every span as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary prints per-name count, total and self time: a span's self
// time is its duration minus the union of its children's intervals.
func (r *recorder) summary(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[uint64][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	for _, s := range r.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		d := time.Duration(s.End - s.Start)
		a.n++
		a.total += d
		a.self += d - covered(s, kids[s.ID])
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-32s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-32s %8d %12.3f %12.3f\n", n, a.n,
			float64(a.total)/1e6, float64(a.self)/1e6)
	}
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			sum += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		sum += curE - curS
	}
	return time.Duration(sum)
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p99Window is the sample count of one latency window: the smallest
// that leaves ten samples beyond its 99th percentile.
const p99Window = 1024

// windowedQuantile is the median, over consecutive windows of w samples
// in arrival order, of each window's q-quantile; with fewer than two
// full windows it is the plain q-quantile. A burst of host scheduling
// noise then moves a few windows, not the reported tail.
func windowedQuantile(xs []float64, q float64, w int) float64 {
	if len(xs) < 2*w {
		return quantile(xs, q)
	}
	var qs []float64
	for i := 0; i+w <= len(xs); i += w {
		qs = append(qs, quantile(xs[i:i+w], q))
	}
	return median(qs)
}
