package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParkResumesAtUnparkTime(t *testing.T) {
	k := NewKernel()
	var woke Time
	p := k.Spawn("parker", func(p *Proc) {
		p.Park()
		woke = p.Now()
	})
	k.At(Time(3e9), p.Unpark)
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
	if woke != Time(3e9) {
		t.Fatalf("woke at %v, want 3s", woke)
	}
}

// TestUnparkOrdersLikeSignal checks that Unpark and Queue.Signal schedule
// the same kind of wake: releases at one instant resume in the order they
// were issued, whichever primitive issued them.
func TestUnparkOrdersLikeSignal(t *testing.T) {
	k := NewKernel()
	q := k.NewQueue("q")
	var order []string
	parker := k.Spawn("parker", func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.Park()
			order = append(order, "parker")
		}
	})
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 2; i++ {
			q.Wait(p)
			order = append(order, "waiter")
		}
	})
	k.At(Time(1e9), func() { parker.Unpark(); q.Signal() })
	k.At(Time(2e9), func() { q.Signal(); parker.Unpark() })
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got, want := strings.Join(order, ","), "parker,waiter,waiter,parker"; got != want {
		t.Fatalf("wake order %s, want %s", got, want)
	}
}

// mustPanic runs fn and reports whether it panicked with a message
// mentioning "not parked".
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s: Unpark did not panic", what)
			return
		}
		if msg, _ := r.(string); !strings.Contains(msg, "not parked") {
			t.Errorf("%s: panic %v, want a not-parked message", what, r)
		}
	}()
	fn()
}

func TestUnparkNotParkedPanics(t *testing.T) {
	k := NewKernel()
	q := k.NewQueue("q")
	sleeper := k.Spawn("sleeper", func(p *Proc) { p.Sleep(5 * time.Second) })
	waiter := k.Spawn("waiter", func(p *Proc) { q.Wait(p) })
	parker := k.Spawn("parker", func(p *Proc) { p.Park() })
	k.Spawn("self", func(p *Proc) {
		mustPanic(t, "running proc", p.Unpark)
	})
	k.At(Time(1e9), func() {
		mustPanic(t, "sleeping proc", sleeper.Unpark)
		mustPanic(t, "queue waiter", waiter.Unpark)
		parker.Unpark()
		mustPanic(t, "already unparked", parker.Unpark)
		q.Signal()
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
	mustPanic(t, "finished proc", parker.Unpark)
}

func TestParkedForeverIsDeadlock(t *testing.T) {
	k := NewKernel()
	k.Spawn("forgotten", func(p *Proc) { p.Park() })
	k.Spawn("finisher", func(p *Proc) { p.Sleep(time.Second) })
	err := k.Run(MaxTime)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "forgotten" {
		t.Fatalf("blocked = %v, want [forgotten]", dl.Blocked)
	}
	if len(k.procs) != 0 {
		t.Fatalf("%d procs left after the deadlock abort", len(k.procs))
	}
}
