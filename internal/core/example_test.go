package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/npb"
)

// ExampleRun measures the EXTERNAL strategy's energy-delay tradeoff on FT,
// the paper's headline workload. Simulations are deterministic, so the
// output is exact.
func ExampleRun() {
	w, err := npb.FT(npb.ClassB, 8)
	if err != nil {
		panic(err)
	}
	base, err := core.Run(w, core.NoDVS(), core.DefaultConfig())
	if err != nil {
		panic(err)
	}
	low, err := core.Run(w, core.External(600), core.DefaultConfig())
	if err != nil {
		panic(err)
	}
	n := core.Normalize(low, base)
	fmt.Printf("FT at 600 MHz: delay %.2f, energy %.2f\n", n.Delay, n.Energy)
	// Output: FT at 600 MHz: delay 1.12, energy 0.59
}

// ExampleRun_custom runs a hand-written workload on the simulated
// cluster: Body is the program every rank executes.
func ExampleRun_custom() {
	w := npb.Workload{Code: "DEMO", Class: npb.ClassC, Ranks: 4, Variant: "custom",
		Body: func(r *mpisim.Rank) {
			for i := 0; i < 2; i++ {
				r.Compute(140)
				r.Alltoall(10000)
			}
		}}
	r, err := core.Run(w, core.NoDVS(), core.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s ran for %.0f ms\n", r.Name, r.Elapsed.Seconds()*1000)
	// Output: DEMO.C.4+custom ran for 206 ms
}
