package npb_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/npb"
)

// A hand-written workload is a Workload literal whose Body is the rank
// program; these tests run such bodies end to end through core.Run.

func TestCustomRunsAllPhases(t *testing.T) {
	w := npb.Workload{Code: "SYNTH", Class: npb.ClassC, Ranks: 4, Variant: "custom",
		Body: func(r *mpisim.Rank) {
			for i := 0; i < 3; i++ {
				r.Compute(140) // 100 ms
				r.MemoryStall(50 * time.Millisecond)
				r.DiskIO(20 * time.Millisecond)
				r.Alltoall(10_000)
				r.Allreduce(8)
			}
			r.Barrier()
		}}
	r, err := core.Run(w, core.NoDVS(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := r.RankStats[0]
	if st.Compute < 290*time.Millisecond || st.Compute > 310*time.Millisecond {
		t.Errorf("compute = %v", st.Compute)
	}
	if st.Memory != 150*time.Millisecond {
		t.Errorf("memory = %v", st.Memory)
	}
	if st.Disk != 60*time.Millisecond {
		t.Errorf("disk = %v", st.Disk)
	}
	if st.Messages == 0 {
		t.Error("no communication happened")
	}
	if w.Name() != "SYNTH.C.4+custom" {
		t.Errorf("name = %q", w.Name())
	}
}

func TestCustomAsymmetricScript(t *testing.T) {
	// CG-style: half the ranks compute twice as much; the ring exchange
	// synchronizes them so the light half accumulates wait time.
	w := npb.Workload{Code: "ASYM", Class: npb.ClassC, Ranks: 4, Variant: "custom",
		Body: func(r *mpisim.Rank) {
			n := r.Size()
			next, prev := (r.ID()+1)%n, (r.ID()-1+n)%n
			for i := 0; i < 10; i++ {
				if r.ID() < 2 {
					r.Compute(280)
				} else {
					r.Compute(140)
				}
				r.SendRecv(next, 1000, prev, 1000, 900)
			}
		}}
	r, err := core.Run(w, core.NoDVS(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.RankStats[0].Compute <= r.RankStats[3].Compute {
		t.Error("no compute asymmetry")
	}
	if r.RankStats[3].Wait <= r.RankStats[0].Wait {
		t.Error("light ranks did not wait more")
	}
}

func TestCustomInternalControl(t *testing.T) {
	// A body with explicit set_cpuspeed around a comm phase saves energy
	// vs the same body without, like hand-instrumented FT.
	build := func(withDVS bool) npb.Workload {
		return npb.Workload{Code: "DVS", Class: npb.ClassC, Ranks: 4, Variant: "custom",
			Body: func(r *mpisim.Rank) {
				for i := 0; i < 5; i++ {
					r.Compute(700) // 0.5 s
					if withDVS {
						r.SetSpeed(600)
					}
					r.Alltoall(2_000_000)
					if withDVS {
						r.SetSpeed(1400)
					}
				}
			}}
	}
	cfg := core.DefaultConfig()
	base, err := core.Run(build(false), core.NoDVS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := core.Run(build(true), core.NoDVS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := core.Normalize(tuned, base)
	if n.Energy >= 0.90 {
		t.Errorf("internal control saved only %.0f%%", (1-n.Energy)*100)
	}
	if n.Delay > 1.05 {
		t.Errorf("internal control delay %.3f", n.Delay)
	}
}
