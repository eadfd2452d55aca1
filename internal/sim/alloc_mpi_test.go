package sim_test

// The kernel's own alloc tests (alloc_test.go) pin the event and proc
// switch substrate at zero allocations. This external-package test pins
// the full mpisim ping-pong round trip — Send/Recv through netsim and the
// node model — at its steady-state allocation budget, so a kernel change
// that sneaks allocations into the proc switch (or an MPI-layer change
// that regresses the message path) fails here rather than only showing up
// in -benchmem.

import (
	"runtime"
	"testing"

	"repro/internal/mpisim"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/sim"
)

// pingPongAllocBudget is the per-round-trip allocation count across both
// ranks, and nothing is left to allocate: a blocking Send builds no
// Request, each Recv's Request and each message's delivery event come
// from the world's freelists, a waiting rank parks in a slot on its
// Request, every kernel event comes from the kernel freelist, and every
// proc switch is a coroutine resume that allocates nothing (iter.Pull
// allocates once, at Spawn).
const pingPongAllocBudget = 0

// memStatsSlack covers the allocations runtime.ReadMemStats itself makes
// between the two snapshots.
const memStatsSlack = 16

func TestMPIPingPongSteadyStateAllocBudget(t *testing.T) {
	k := sim.NewKernel()
	nodes := []*node.Node{
		node.MustNew(k, 0, node.DefaultConfig()),
		node.MustNew(k, 1, node.DefaultConfig()),
	}
	net := netsim.MustNew(k, netsim.DefaultConfig(2))
	w, err := mpisim.NewWorld(k, net, nodes, mpisim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const warmup, rounds = 64, 1024
	var mallocs uint64
	if err := w.Launch("pingpong", func(r *mpisim.Rank) {
		roundTrip := func() {
			if r.ID() == 0 {
				r.Send(1, 0, 64)
				r.Recv(1, 1)
			} else {
				r.Recv(0, 0)
				r.Send(0, 1, 64)
			}
		}
		for i := 0; i < warmup; i++ {
			roundTrip()
		}
		var m0, m1 runtime.MemStats
		if r.ID() == 0 {
			runtime.ReadMemStats(&m0)
		}
		for i := 0; i < rounds; i++ {
			roundTrip()
		}
		if r.ID() == 0 {
			runtime.ReadMemStats(&m1)
			mallocs = m1.Mallocs - m0.Mallocs
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	perRound := float64(mallocs) / rounds
	if raceEnabled {
		t.Skipf("race instrumentation allocates (%.2f objects per round trip); budget checked without -race", perRound)
	}
	if mallocs > pingPongAllocBudget*rounds+memStatsSlack {
		t.Fatalf("ping-pong round trip allocates %.2f objects, budget %d", perRound, pingPongAllocBudget)
	}
}
