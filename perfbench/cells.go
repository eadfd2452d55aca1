package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"regexp"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/sweep"
)

// The warm set: every NPB code × eight strategies × four cluster
// configurations, 256 wire cells. Setup simulates each once through
// the gateway, so the timed phase of simulate-hot is all cache hits.
var (
	warmCodes  = []string{"BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"}
	warmStrats = []server.StrategySpec{
		{Kind: "nodvs"},
		{Kind: "external", FreqMHz: 600},
		{Kind: "external", FreqMHz: 800},
		{Kind: "external", FreqMHz: 1000},
		{Kind: "external", FreqMHz: 1200},
		{Kind: "daemon", Preset: "v1.2.1"},
		{Kind: "daemon", Preset: "v1.1"},
		{Kind: "ondemand"},
	}
	warmConfigs = []*server.ConfigSpec{
		nil,
		{TransitionLatencyUS: ptr(100.0)},
		{NetLatencyUS: ptr(120.0)},
		{WaitBusyFrac: ptr(0.5)},
	}
)

func ptr[T any](v T) *T { return &v }

const warmSize = 8 * 8 * 4

// warmIndex packs (code, strategy, config) into a warm-set index.
func warmIndex(code, strat, cfg int) int { return (code*len(warmStrats)+strat)*len(warmConfigs) + cfg }

// warmSpec is warm cell i as a /simulate body.
func warmSpec(i int) server.JobSpec {
	cfg := i % len(warmConfigs)
	strat := i / len(warmConfigs) % len(warmStrats)
	code := i / len(warmConfigs) / len(warmStrats)
	return server.JobSpec{
		Workload: server.WorkloadSpec{Code: warmCodes[code]},
		Strategy: warmStrats[strat],
		Config:   warmConfigs[cfg],
	}
}

func warmName(i int) string {
	s := warmSpec(i)
	label := s.Strategy.Kind
	switch {
	case s.Strategy.FreqMHz != 0:
		label = fmt.Sprintf("%s-%g", label, s.Strategy.FreqMHz)
	case s.Strategy.Preset != "":
		label += "-" + s.Strategy.Preset
	}
	return fmt.Sprintf("%s/%s/cfg%d", s.Workload.Code, label, i%len(warmConfigs))
}

// gridCell is one cell of a sweep-mixed grid: its spec, and the warm
// cell whose result it must reproduce byte for byte.
type gridCell struct {
	spec  server.JobSpec
	twin  int  // warm-set index with the identical expected result
	fresh bool // a key no earlier request used
}

// gridSize is the cell count of one sweep-mixed /sweep request.
const gridSize = 64

// mixedGrid is grid k of seed's sweep-mixed run. Every grid holds each
// code × strategy pair exactly once, in the same order, and the 32 pairs
// with odd code+strategy are always the fresh ones, so the simulation
// work and its placement in the stream are the same for every seed and
// grid. Warm pairs draw one of the warm configurations. Fresh pairs take
// the default configuration with a net_seed unique to (seed, k, pair):
// with no link loss configured the net seed drives nothing, so the
// result equals the warm twin's while the cache key is new.
func mixedGrid(seed int64, k int) []gridCell {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
	cells := make([]gridCell, 0, gridSize)
	for code := range warmCodes {
		for strat := range warmStrats {
			pair := code*len(warmStrats) + strat
			if (code+strat)%2 == 1 {
				twin := warmIndex(code, strat, 0)
				spec := warmSpec(twin)
				spec.Config = &server.ConfigSpec{NetSeed: ptr(freshNetSeed(seed, k, pair))}
				cells = append(cells, gridCell{spec: spec, twin: twin, fresh: true})
				continue
			}
			twin := warmIndex(code, strat, rng.Intn(len(warmConfigs)))
			cells = append(cells, gridCell{spec: warmSpec(twin), twin: twin})
		}
	}
	return cells
}

// freshNetSeed is distinct for every (seed, grid, pair) with seed below
// 2^30 and grid below 2^26, and never 0 (the warm cells' net seed).
func freshNetSeed(seed int64, k, pair int) int64 {
	return 1 + seed<<32 + int64(k)*gridSize + int64(pair)
}

// maxSeed bounds the workload seed so fresh net seeds stay distinct.
const maxSeed = 1 << 30

// foldSeed maps any --seed value into [0, maxSeed); seeds already in
// range are kept as given.
func foldSeed(seed int64) int64 {
	return (seed%maxSeed + maxSeed) % maxSeed
}

// golden holds the reference digests the outputs are checked against.
type golden struct {
	// Reproduce is the sha256 of `reproduce -only all -class C` stdout
	// after normaliseReproduce.
	Reproduce string `json:"reproduce_stdout_sha256"`
	// Warm maps warmName(i) to the sha256 of cell i's result object as
	// dvsd encodes it.
	Warm map[string]string `json:"warm_result_sha256"`
}

func loadGolden(path string) (*golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(g.Reproduce) != sha256.Size*2 {
		return nil, fmt.Errorf("%s: no reproduce digest", path)
	}
	for i := 0; i < warmSize; i++ {
		if len(g.warm(i)) != sha256.Size*2 {
			return nil, fmt.Errorf("%s: no digest for warm cell %s", path, warmName(i))
		}
	}
	return &g, nil
}

func (g *golden) warm(i int) string { return g.Warm[warmName(i)] }

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// The profiling line carries a wall time, and both status lines carry
// the worker count, which follows the host's CPU count; everything else
// reproduce prints is deterministic.
var (
	profiledLine = regexp.MustCompile(`(?m)^\(profiled (\d+) codes x (\d+) settings in [0-9.]+s wall on \d+ workers\)$`)
	engineLine   = regexp.MustCompile(`(?m)^\(sweep engine: (\d+) simulations run, (\d+) cache hits, \d+ workers\)$`)
)

func normaliseReproduce(out []byte) []byte {
	out = profiledLine.ReplaceAll(out, []byte("(profiled $1 codes x $2 settings in <t>s wall on <n> workers)"))
	return engineLine.ReplaceAll(out, []byte("(sweep engine: $1 simulations run, $2 cache hits, <n> workers)"))
}

// wireResult simulates c in this process and encodes its result object
// as dvsd does.
func wireResult(c server.Cell) ([]byte, error) {
	r, err := core.Run(c.Job.Workload, c.Job.Strategy, c.Job.Config)
	if err != nil {
		return nil, err
	}
	return json.Marshal(sweep.ToResultJSON(r))
}
