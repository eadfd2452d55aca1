//go:build go1.23

// iter.Pull is Go 1.23 API. The build tag lifts this file's language
// version above go.mod's go 1.22 line. go.mod stays at 1.22 because the
// perfbench module replaces this one from its own go 1.22 go.mod, and a
// higher go line here would make it fail with "updates to go.mod needed".

package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
)

// ErrInterrupted is returned by interruptible blocking primitives when
// another proc called Interrupt on the blocked proc.
var ErrInterrupted = errors.New("sim: interrupted")

// errAborted is panicked inside a blocked proc's yield once the kernel has
// stopped its coroutine; it is caught by the proc wrapper and never escapes
// to user code.
var errAborted = errors.New("sim: aborted")

// Proc is a simulated process. A Proc's body function runs as a coroutine:
// Run resumes it when an event names it, and it hands control back to Run
// whenever it calls a blocking primitive (Sleep, Park, ...).
//
// A Proc must only be used from its own body function, except for
// Interrupt and Unpark, which other procs (or kernel At callbacks) may call.
type Proc struct {
	k    *Kernel
	name string
	// next resumes the coroutine until its body blocks (true) or returns
	// (false); stop makes a blocked yield return false; yieldFn is the
	// coroutine's yield, called by the body to block.
	next    func() (struct{}, bool)
	stop    func()
	yieldFn func(struct{}) bool
	// kind is why Run last resumed the proc.
	kind wakeKind

	// pendingWake is the timer event that will resume this proc, if it is
	// sleeping; Interrupt cancels it.
	pendingWake *event
	// parked is set while the proc is blocked in Park and not yet Unparked.
	parked bool
	// interruptible marks whether the current block may be interrupted.
	interruptible bool
	// done is set after the body returns.
	done bool
}

// Spawn creates a proc named name whose body is fn and schedules it to
// start at the current virtual time. It may be called before Run or from
// inside other procs and At callbacks.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt schedules the proc to start at absolute time t.
func (k *Kernel) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	if fn == nil {
		panic("sim: Spawn with nil fn")
	}
	p := &Proc{k: k, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != errAborted && k.err == nil {
				k.err = &PanicError{Proc: p.name, Value: r, Stack: string(debug.Stack())}
			}
		}()
		p.yieldFn = yield
		fn(p)
	})
	k.procs[p] = struct{}{}
	ev := k.alloc()
	ev.t, ev.proc = t, p
	k.schedule(ev)
	p.pendingWake = ev
	return p
}

// resume runs p until it blocks or its body returns.
func (k *Kernel) resume(p *Proc) {
	k.running = p
	if _, ok := p.next(); !ok {
		p.done = true
		delete(k.procs, p)
	}
	k.running = nil
}

// Name returns the proc's name.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// yield blocks the calling proc and returns the wake kind when it is next
// resumed. The coroutine switches straight back to Run, which dispatches
// events until one resumes this proc again. Once abortAll has stopped the
// coroutine, yield returns false and the proc unwinds with errAborted.
func (p *Proc) yield() wakeKind {
	if p.k.running != p {
		panic(fmt.Sprintf("sim: proc %q yielding while not running", p.name))
	}
	if !p.yieldFn(struct{}{}) {
		panic(errAborted)
	}
	return p.kind
}

// Sleep suspends the proc for d of virtual time. It cannot be interrupted.
func (p *Proc) Sleep(d Duration) {
	ev := p.k.alloc()
	ev.t, ev.proc = p.k.now.Add(d), p
	p.k.schedule(ev)
	p.pendingWake = ev
	p.yield()
}

// SleepInterruptible suspends the proc for up to d. It returns the virtual
// time actually slept and ErrInterrupted if another proc cut the sleep
// short via Interrupt; otherwise err is nil and elapsed == d.
func (p *Proc) SleepInterruptible(d Duration) (elapsed Duration, err error) {
	start := p.k.now
	ev := p.k.alloc()
	ev.t, ev.proc = p.k.now.Add(d), p
	p.k.schedule(ev)
	p.pendingWake = ev
	p.interruptible = true
	kind := p.yield()
	p.interruptible = false
	elapsed = p.k.now.Sub(start)
	if kind == wakeInterrupted {
		return elapsed, ErrInterrupted
	}
	return elapsed, nil
}

// Interrupt wakes p immediately if it is blocked in SleepInterruptible. It
// reports whether an interrupt was delivered. Interrupting a proc that is
// running, done, or in a non-interruptible block is a no-op.
func (p *Proc) Interrupt() bool {
	if p.done || !p.interruptible || p.k.running == p {
		return false
	}
	if p.pendingWake != nil {
		p.pendingWake.canceled = true
		p.pendingWake = nil
	}
	ev := p.k.alloc()
	ev.t, ev.proc, ev.kind = p.k.now, p, wakeInterrupted
	p.k.schedule(ev)
	p.pendingWake = ev
	return true
}

// Park blocks the proc until another proc or an At callback calls Unpark
// on it. A condition that exactly one known proc can be waiting on keeps
// that *Proc in a slot and parks it. Park cannot be interrupted.
func (p *Proc) Park() {
	p.parked = true
	p.yield()
}

// Unpark releases a proc blocked in Park, scheduling it to resume at the
// current virtual time. It panics if p is not parked (running, sleeping,
// done, or already unparked).
func (p *Proc) Unpark() {
	if !p.parked {
		panic(fmt.Sprintf("sim: Unpark of proc %q that is not parked", p.name))
	}
	p.parked = false
	ev := p.k.alloc()
	ev.t, ev.proc = p.k.now, p
	p.k.schedule(ev)
	p.pendingWake = ev
}
