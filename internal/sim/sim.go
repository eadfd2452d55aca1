// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel owns a virtual clock and an event heap. Simulated activities
// are written as ordinary Go functions ("procs") that call blocking
// primitives such as Sleep and Park. Each proc is a coroutine (iter.Pull)
// driven by Kernel.Run: Run pops events in its caller's goroutine, runs At
// callbacks inline and resumes the proc an event names; the proc runs
// until it blocks again and control returns straight to Run. Exactly one
// of Run or a single proc executes at any instant, so simulations are
// fully deterministic: same program, same seed, same result.
//
// Events with equal timestamps fire in the order they were scheduled
// (FIFO tie-break by sequence number).
package sim

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration re-exports time.Duration for convenience; virtual durations use
// the same nanosecond resolution as wall-clock durations.
type Duration = time.Duration

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// Add returns t shifted by d, saturating at MaxTime.
func (t Time) Add(d Duration) Time {
	if d < 0 {
		panic("sim: negative duration")
	}
	s := t + Time(d)
	if s < t {
		return MaxTime
	}
	return s
}

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// wakeKind tells a blocked proc why it was woken.
type wakeKind int

const (
	wakeNormal      wakeKind = iota // timer fired or Unpark delivered
	wakeInterrupted                 // another proc called Interrupt
)

// event is a single entry in the kernel's event heap. Exactly one of proc
// or fn is set: proc events resume a blocked proc, fn events run a callback
// inside Run (used for At callbacks).
// Events are pooled per kernel (see Kernel.alloc/release): the simulator's
// hottest path is schedule→pop, and recycling events through a freelist
// keeps it allocation-free in steady state.
type event struct {
	t        Time
	seq      uint64
	proc     *Proc
	kind     wakeKind
	fn       func()
	canceled bool
}

// eventHeap is a binary min-heap ordered by (time, seq). It deliberately
// does not implement container/heap: the interface-based API boxes every
// element through `any` on Push/Pop, which costs an allocation per event.
// The concrete sift-up/sift-down below keep the hot path boxing-free.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e *event) {
	*h = append(*h, e)
	// Sift up.
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() *event {
	s := *h
	n := len(s) - 1
	e := s[0]
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.less(r, l) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return e
}

// Kernel is the simulation executive. The zero value is not usable; create
// one with NewKernel.
type Kernel struct {
	now     Time
	seq     uint64
	events  eventHeap
	free    []*event // recycled events; see alloc/release
	procs   map[*Proc]struct{}
	running *Proc
	inRun   bool
	err     error
}

// eventPrealloc sizes the event heap and freelist at construction so
// steady-state simulations never grow either backing array.
const eventPrealloc = 64

// NewKernel returns a kernel with the clock at zero and no pending events.
func NewKernel() *Kernel {
	return &Kernel{
		events: make(eventHeap, 0, eventPrealloc),
		free:   make([]*event, 0, eventPrealloc),
		procs:  make(map[*Proc]struct{}),
	}
}

// alloc returns a zeroed event, reusing a previously released one when
// available. Together with release it makes the schedule/pop hot path
// allocation-free in steady state.
func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	return &event{}
}

// release recycles a dispatched (or canceled-and-popped) event. The caller
// must guarantee no live pointer to e remains: Run releases an event only
// after it has been popped and its fields copied out, and procs drop their
// pendingWake reference before the wake is delivered.
func (k *Kernel) release(e *event) {
	*e = event{}
	k.free = append(k.free, e)
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// schedule inserts an event at absolute time t.
func (k *Kernel) schedule(e *event) *event {
	if e.t < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", e.t, k.now))
	}
	e.seq = k.seq
	k.seq++
	k.events.push(e)
	return e
}

// At schedules fn to run inside Run at time t. fn must not block; it may
// spawn procs, unpark procs, and schedule further events.
func (k *Kernel) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: At with nil fn")
	}
	e := k.alloc()
	e.t, e.fn = t, fn
	k.schedule(e)
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Duration, fn func()) { k.At(k.now.Add(d), fn) }

// Err returns the first error (proc panic) encountered during Run, if any.
func (k *Kernel) Err() error { return k.err }

// DeadlockError is returned by Run when the event heap drains while procs
// are still parked: they are waiting for an Unpark that can never arrive.
type DeadlockError struct {
	Time    Time
	Blocked []string // names of blocked procs
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d procs blocked: %v", e.Time, len(e.Blocked), e.Blocked)
}

// PanicError wraps a panic raised inside a proc.
type PanicError struct {
	Proc  string
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v", e.Proc, e.Value)
}

// Run executes events until the heap is empty or until (exclusive) limit.
// Pass MaxTime to run to completion. It returns the first proc panic as a
// *PanicError, or a *DeadlockError if procs remain blocked with no pending
// events. On error the kernel aborts all live procs before returning so no
// goroutines are leaked. A panic raised by an At callback unwinds Run
// itself: the procs are aborted and the value is re-raised in Run's caller.
// A runtime.Goexit in a proc body, which iter.Pull carries into Run's
// goroutine, aborts the procs the same way; Run does not return then.
func (k *Kernel) Run(limit Time) error {
	if k.inRun {
		panic("sim: Run reentered")
	}
	k.inRun = true
	defer func() { k.inRun = false }()
	// Every way out of Run but the limit pause aborts the live procs; after
	// a clean finish there are none and abortAll is a no-op.
	paused := false
	defer func() {
		r := recover()
		if !paused {
			k.abortAll()
		}
		if r != nil {
			panic(r)
		}
	}()

	for len(k.events) > 0 && k.err == nil {
		e := k.events.pop()
		if e.canceled {
			k.release(e)
			continue
		}
		if e.t >= limit {
			// Put it back for a future Run call and stop.
			k.events.push(e)
			k.now = limit
			paused = true
			return nil
		}
		k.now = e.t
		if e.fn != nil {
			fn := e.fn
			k.release(e)
			fn()
			continue
		}
		p := e.proc
		p.kind = e.kind
		k.release(e)
		p.pendingWake = nil
		k.resume(p)
	}
	if k.err != nil {
		return k.err
	}
	if len(k.procs) > 0 {
		names := make([]string, 0, len(k.procs))
		for p := range k.procs {
			names = append(names, p.name)
		}
		sort.Strings(names)
		k.err = &DeadlockError{Time: k.now, Blocked: names}
		return k.err
	}
	return nil
}

// abortAll stops every live proc so its coroutine unwinds and exits: the
// proc's blocked yield returns false and panics errAborted through the
// body's defers, and the proc wrapper swallows it. A proc spawned for a
// future time that never started exits without running its body.
func (k *Kernel) abortAll() {
	for len(k.procs) > 0 {
		var p *Proc
		for q := range k.procs {
			p = q
			break
		}
		// Cancel any pending timer so it cannot fire later.
		if p.pendingWake != nil {
			p.pendingWake.canceled = true
			p.pendingWake = nil
		}
		p.parked = false
		k.running = p
		p.stop()
		k.running = nil
		p.done = true
		delete(k.procs, p)
	}
	// Drain remaining events so a subsequent Run doesn't fire callbacks of
	// a dead simulation. The pops leave len(k.events) == 0 while keeping
	// the heap's backing array and the freelist, so a kernel reused after
	// an error schedules allocation-free again instead of regrowing both
	// from scratch.
	for len(k.events) > 0 {
		k.release(k.events.pop())
	}
}
