package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestScheduleHotPathAllocFree pins the event fast path: once the
// freelist is warm, one schedule→pop→dispatch cycle performs zero heap
// allocations. Before the concrete sift-up/sift-down replaced
// container/heap, every event paid at least one `any`-boxing allocation
// on Push/Pop alone.
func TestScheduleHotPathAllocFree(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	at := Time(0)
	// Warm the freelist and the heap's backing array.
	for i := 0; i < 8; i++ {
		at = at.Add(time.Microsecond)
		k.At(at, fn)
	}
	if err := k.Run(at + 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		at = at.Add(time.Microsecond)
		k.At(at, fn)
		if err := k.Run(at + 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule/pop hot path allocates %.1f objects per event, want 0", allocs)
	}
}

// TestParkUnparkAllocFree pins the single-waiter wake path mpisim
// requests use: with the event freelist warm, a Park→Unpark→resume cycle
// performs zero heap allocations.
func TestParkUnparkAllocFree(t *testing.T) {
	k := NewKernel()
	const warmup, runs = 8, 1000
	const rounds = warmup + runs + 1
	parker := k.Spawn("parker", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Park()
		}
	})
	k.At(MaxTime-1, func() {})
	unpark := parker.Unpark
	at := Time(0)
	step := func() {
		at = at.Add(time.Microsecond)
		k.At(at, unpark)
		if err := k.Run(at + 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warmup; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Fatalf("Park/Unpark cycle allocates %.1f objects, want 0", allocs)
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestSleepInterruptibleAllocFree pins the interruptible sleep path
// (schedule → yield → coroutine resume) at zero allocations.
func TestSleepInterruptibleAllocFree(t *testing.T) {
	k := NewKernel()
	const warmup, runs = 8, 1000
	const rounds = warmup + runs + 1
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			if _, err := p.SleepInterruptible(time.Microsecond); err != nil {
				t.Error(err)
				return
			}
		}
	})
	at := Time(0)
	step := func() {
		at = at.Add(time.Microsecond)
		if err := k.Run(at + 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warmup; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Fatalf("SleepInterruptible cycle allocates %.1f objects, want 0", allocs)
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestSleepChainAllocFree pins a proc sleeping in a loop: each Sleep
// schedules the proc's own wake, switches back to Run, which pops that
// event and resumes the coroutine, all without touching the heap
// allocator. Measured inside the proc body so Run's dispatch between the
// sleeps is covered too.
func TestSleepChainAllocFree(t *testing.T) {
	k := NewKernel()
	var mallocs uint64
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 64; i++ { // warm the freelist
			p.Sleep(time.Microsecond)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 1000; i++ {
			p.Sleep(time.Microsecond)
		}
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if mallocs != 0 {
		t.Fatalf("sleep chain allocated %d objects over 1000 sleeps, want 0", mallocs)
	}
}

// TestFreelistRecycles asserts events actually round-trip through the
// pool instead of growing it without bound.
func TestFreelistRecycles(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	at := Time(0)
	for i := 0; i < 10000; i++ {
		at = at.Add(time.Microsecond)
		k.At(at, fn)
		if err := k.Run(at + 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(k.free); got > 8 {
		t.Fatalf("freelist grew to %d events for a 1-deep schedule", got)
	}
}

// BenchmarkKernelScheduleAndPop is the kernel micro-benchmark for the
// event fast path; run with -benchmem to see allocs/op (0 in steady
// state).
func BenchmarkKernelScheduleAndPop(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	fn := func() {}
	at := Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = at.Add(time.Microsecond)
		k.At(at, fn)
		if err := k.Run(at + 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelDeepHeap exercises sift-up/sift-down with a 1024-event
// backlog.
func BenchmarkKernelDeepHeap(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	fn := func() {}
	at := Time(0)
	const depth = 1024
	for i := 0; i < depth; i++ {
		at = at.Add(time.Microsecond)
		k.At(at, fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = at.Add(time.Microsecond)
		k.At(at, fn)
		if err := k.Run(k.now.Add(time.Microsecond) + 1); err != nil {
			b.Fatal(err)
		}
	}
}
