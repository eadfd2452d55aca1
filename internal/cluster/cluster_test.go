package cluster

import (
	"math"
	"testing"
	"time"

	"repro/internal/mpisim"
	"repro/internal/powerpack"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	cfg := NEMO(4)
	cfg.Node.WaitBusyFrac = 7
	if _, err := New(cfg); err == nil {
		t.Fatal("bad node config accepted")
	}
}

func TestNEMOAssembly(t *testing.T) {
	c, err := New(NEMO(16))
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 16 || len(c.Nodes()) != 16 {
		t.Fatalf("size = %d", c.Size())
	}
	if c.Node(3).ID != 3 {
		t.Fatal("node ids wrong")
	}
	if c.World().Size() != 16 {
		t.Fatal("world size wrong")
	}
	if c.Network().Config().Nodes != 16 {
		t.Fatal("network ports wrong")
	}
	if c.Meter() != nil || c.Collector() != nil {
		t.Fatal("uninstrumented cluster has instruments")
	}
}

func TestRunSimplProgram(t *testing.T) {
	c, err := New(NEMO(4))
	if err != nil {
		t.Fatal(err)
	}
	elapsed, err := c.Run("hello", func(r *mpisim.Rank) {
		r.Compute(140) // 100 ms
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed < 100*time.Millisecond {
		t.Fatalf("elapsed %v", elapsed)
	}
	if c.Energy() <= 0 {
		t.Fatal("no energy")
	}
	var sum float64
	for i := 0; i < c.Size(); i++ {
		sum += c.Node(i).Energy().Total()
	}
	if sum != c.Energy() {
		t.Fatalf("per-node energy sums to %v, cluster reports %v", sum, c.Energy())
	}
}

func TestInstrumentedMeasurement(t *testing.T) {
	cfg := NEMO(2)
	cfg.Instrument = true
	cfg.Battery = powerpack.DefaultBattery()
	cfg.CollectPeriod = time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Meter() == nil || c.Collector() == nil {
		t.Fatal("instruments missing")
	}
	if _, err := c.Run("load", func(r *mpisim.Rank) {
		r.Compute(1400 * 90) // 90 s busy
	}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Measurement()
	if err != nil {
		t.Fatal(err)
	}
	if m.True <= 0 {
		t.Fatal("no measured energy")
	}
	if math.Abs(m.True-c.Energy()) > 1e-6 {
		t.Fatalf("meter true %.1f vs cluster %.1f", m.True, c.Energy())
	}
	if err := m.CrossCheck(2, 0.02); err != nil {
		t.Fatal(err)
	}
	// The collector sampled during the run and stopped at completion.
	if len(c.Collector().Samples()) < 2*80 {
		t.Fatalf("collector samples = %d", len(c.Collector().Samples()))
	}
	rows := powerpack.Align(c.Collector().Samples(), 2)
	if len(rows) < 80 {
		t.Fatalf("aligned rows = %d", len(rows))
	}
}

func TestMeasurementWithoutInstruments(t *testing.T) {
	c, err := New(NEMO(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Measurement(); err == nil {
		t.Fatal("measurement on uninstrumented cluster accepted")
	}
}

func TestClusterIndependence(t *testing.T) {
	// Two clusters do not share state: running one leaves the other's
	// clock and energy untouched.
	a, err := New(NEMO(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(NEMO(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run("x", func(r *mpisim.Rank) { r.Compute(1400) }); err != nil {
		t.Fatal(err)
	}
	if b.Kernel().Now() != 0 {
		t.Fatal("cluster B clock moved")
	}
	if b.Energy() != 0 {
		t.Fatal("cluster B consumed energy")
	}
}

func TestPowerJitterVariesNodes(t *testing.T) {
	cfg := NEMO(8)
	cfg.PowerJitter = 0.05
	cfg.JitterSeed = 7
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run("load", func(r *mpisim.Rank) {
		r.Compute(1400 * 10)
	}); err != nil {
		t.Fatal(err)
	}
	energies := make([]float64, c.Size())
	for i := range energies {
		energies[i] = c.Node(i).Energy().Total()
	}
	allEqual := true
	for _, e := range energies[1:] {
		if e != energies[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Fatal("jittered nodes consumed identical energy")
	}
	// Variation is bounded by the jitter magnitude.
	lo, hi := energies[0], energies[0]
	for _, e := range energies {
		lo, hi = min(lo, e), max(hi, e)
	}
	if hi/lo > 1.15 {
		t.Fatalf("jitter spread too wide: %.1f..%.1f", lo, hi)
	}
	// Determinism: the same seed reproduces the same spread.
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run("load", func(r *mpisim.Rank) { r.Compute(1400 * 10) }); err != nil {
		t.Fatal(err)
	}
	for i, e := range energies {
		if c2.Node(i).Energy().Total() != e {
			t.Fatal("jitter not deterministic")
		}
	}
}

func TestPowerJitterValidation(t *testing.T) {
	cfg := NEMO(2)
	cfg.PowerJitter = 1.0
	if _, err := New(cfg); err == nil {
		t.Fatal("jitter 1.0 accepted")
	}
}
