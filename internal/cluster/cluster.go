// Package cluster assembles the simulated power-aware machine: N nodes, an
// interconnect, the MPI world bound to them, and — optionally — the full
// PowerPack instrumentation (per-node ACPI batteries, a Baytech strip, and
// a power-profile collector). It is the layer between the raw substrates
// (node, netsim, mpisim, powerpack) and the experiment façade (core).
//
// A Cluster owns a private simulation kernel, so independent clusters are
// independent experiments; everything on one cluster is deterministic.
package cluster

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/mpisim"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/powerpack"
	"repro/internal/sim"
)

// Config assembles a cluster.
type Config struct {
	Nodes int
	Node  node.Config
	Net   netsim.Config // the Nodes field is overridden by Config.Nodes
	MPI   mpisim.Config
	// Instrument attaches PowerPack batteries/strip/collector.
	Instrument bool
	Battery    powerpack.BatteryConfig
	// CollectPeriod is the power-profile sampling period when
	// instrumented (0 disables the collector).
	CollectPeriod time.Duration
	// PowerJitter models manufacturing variation: each node's base and
	// dynamic CPU power are scaled by a factor drawn uniformly from
	// [1−j, 1+j] using JitterSeed. Real clusters are never perfectly
	// homogeneous — the paper repeated runs 3× partly for this reason.
	PowerJitter float64
	JitterSeed  int64
}

// NEMO returns the paper's 16-node cluster configuration (or any size via
// nodes), uninstrumented.
func NEMO(nodes int) Config {
	return Config{
		Nodes: nodes,
		Node:  node.DefaultConfig(),
		Net:   netsim.DefaultConfig(nodes),
		MPI:   mpisim.DefaultConfig(),
	}
}

// Cluster is an assembled machine, ready to launch one MPI program.
type Cluster struct {
	cfg   Config
	k     *sim.Kernel
	nodes []*node.Node
	net   *netsim.Network
	world *mpisim.World

	meter     *powerpack.Meter
	collector *powerpack.Collector
}

// New builds a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	if cfg.PowerJitter < 0 || cfg.PowerJitter >= 1 {
		return nil, fmt.Errorf("cluster: power jitter must be in [0, 1)")
	}
	k := sim.NewKernel()
	c := &Cluster{cfg: cfg, k: k}
	var rng *rand.Rand
	if cfg.PowerJitter > 0 {
		rng = rand.New(rand.NewSource(cfg.JitterSeed))
	}
	for i := 0; i < cfg.Nodes; i++ {
		ncfg := cfg.Node
		if rng != nil {
			f := 1 + cfg.PowerJitter*(2*rng.Float64()-1)
			ncfg.Power.BaseWatts *= f
			ncfg.Power.CPUDynamic *= f
		}
		n, err := node.New(k, i, ncfg)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	netCfg := cfg.Net
	netCfg.Nodes = cfg.Nodes
	net, err := netsim.New(k, netCfg)
	if err != nil {
		return nil, err
	}
	c.net = net
	world, err := mpisim.NewWorld(k, net, c.nodes, cfg.MPI)
	if err != nil {
		return nil, err
	}
	c.world = world
	if cfg.Instrument {
		m, err := powerpack.NewMeter(k, c.nodes, cfg.Battery)
		if err != nil {
			return nil, err
		}
		c.meter = m
		if cfg.CollectPeriod > 0 {
			col, err := powerpack.StartCollector(k, c.nodes, cfg.CollectPeriod)
			if err != nil {
				return nil, err
			}
			c.collector = col
			world.OnAllDone(col.Stop)
		}
	}
	return c, nil
}

// Kernel returns the cluster's simulation kernel.
func (c *Cluster) Kernel() *sim.Kernel { return c.k }

// Nodes returns the cluster's nodes.
func (c *Cluster) Nodes() []*node.Node { return c.nodes }

// Node returns node i.
func (c *Cluster) Node(i int) *node.Node { return c.nodes[i] }

// Network returns the interconnect.
func (c *Cluster) Network() *netsim.Network { return c.net }

// World returns the MPI world.
func (c *Cluster) World() *mpisim.World { return c.world }

// Meter returns the PowerPack meter, or nil when uninstrumented.
func (c *Cluster) Meter() *powerpack.Meter { return c.meter }

// Collector returns the power-profile collector, or nil.
func (c *Cluster) Collector() *powerpack.Collector { return c.collector }

// Size returns the node count.
func (c *Cluster) Size() int { return len(c.nodes) }

// Run launches body on every rank, drives the simulation to completion,
// and returns the elapsed virtual time. When instrumented, the PowerPack
// meter brackets the run.
func (c *Cluster) Run(name string, body func(r *mpisim.Rank)) (time.Duration, error) {
	if c.meter != nil {
		c.meter.Begin()
	}
	if err := c.world.Launch(name, body); err != nil {
		return 0, err
	}
	if err := c.k.Run(sim.MaxTime); err != nil {
		return 0, err
	}
	if !c.world.Done() {
		return 0, fmt.Errorf("cluster: %s did not complete", name)
	}
	return time.Duration(c.world.Elapsed()), nil
}

// Measurement closes the PowerPack measurement window (after Run) and
// returns it. Errors when the cluster is uninstrumented.
func (c *Cluster) Measurement() (powerpack.Measurement, error) {
	if c.meter == nil {
		return powerpack.Measurement{}, fmt.Errorf("cluster: not instrumented")
	}
	return c.meter.End()
}

// Energy sums the true per-node joules consumed so far.
func (c *Cluster) Energy() float64 {
	var total float64
	for _, n := range c.nodes {
		total += n.Energy().Total()
	}
	return total
}

// Transitions sums DVS transitions across the cluster.
func (c *Cluster) Transitions() int {
	total := 0
	for _, n := range c.nodes {
		total += n.Transitions()
	}
	return total
}
