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

// TestUnparkResumesInUnparkOrder checks that procs unparked at one
// instant resume in the order the Unparks were issued, not in the order
// they parked.
func TestUnparkResumesInUnparkOrder(t *testing.T) {
	k := NewKernel()
	var order []string
	mk := func(name string) *Proc {
		return k.Spawn(name, func(p *Proc) {
			for i := 0; i < 2; i++ {
				p.Park()
				order = append(order, name)
			}
		})
	}
	a, b := mk("a"), mk("b")
	k.At(Time(1e9), func() { a.Unpark(); b.Unpark() })
	k.At(Time(2e9), func() { b.Unpark(); a.Unpark() })
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got, want := strings.Join(order, ","), "a,b,b,a"; got != want {
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
	sleeper := k.Spawn("sleeper", func(p *Proc) { p.Sleep(5 * time.Second) })
	parker := k.Spawn("parker", func(p *Proc) { p.Park() })
	k.Spawn("self", func(p *Proc) {
		mustPanic(t, "running proc", p.Unpark)
	})
	k.At(Time(1e9), func() {
		mustPanic(t, "sleeping proc", sleeper.Unpark)
		parker.Unpark()
		mustPanic(t, "already unparked", parker.Unpark)
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
