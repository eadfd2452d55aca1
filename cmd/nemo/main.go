// Command nemo drives parameter sweeps over the simulated cluster:
// arbitrary code × class × rank-count × frequency grids, with CSV output
// for plotting. It is the general-purpose study driver; cmd/reproduce is
// the fixed paper-artifact generator. The grid runs through the same
// sweep pipeline as reproduce and dvsd, so its cells simulate in parallel
// and identical cells simulate once.
//
// Usage:
//
//	nemo -codes FT,CG -classes W,A -ranks 4,8,16 -freqs 600,1000,1400
//	nemo -codes FT -classes C -ranks 8 -freqs all -auto -csv ft.csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cliparse"
	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/netsim"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sweep"
)

func main() {
	codes := flag.String("codes", "FT", "comma-separated benchmark codes ("+cliparse.WorkloadUsage()+")")
	classes := flag.String("classes", "W", "comma-separated problem classes")
	ranksFlag := flag.String("ranks", "8", "comma-separated rank counts (0 = paper count)")
	freqs := flag.String("freqs", "all", "comma-separated MHz values, or 'all'")
	auto := flag.Bool("auto", false, "also run the CPUSPEED daemon")
	topology := flag.String("topology", "single", "interconnect: single | two-tier")
	csvPath := flag.String("csv", "", "write results to this CSV file")
	flag.Parse()

	cfg := core.DefaultConfig()
	switch *topology {
	case "single":
	case "two-tier":
		cfg.Net.Topology = netsim.TwoTier
		cfg.Net.TwoTier = netsim.DefaultTwoTier()
	default:
		fatal(fmt.Errorf("unknown topology %q", *topology))
	}
	var fs []dvs.MHz
	if *freqs == "all" {
		fs = cfg.Node.Table.Frequencies()
	} else {
		for _, s := range strings.Split(*freqs, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fatal(err)
			}
			fs = append(fs, dvs.MHz(v))
		}
	}

	// Every workload contributes a row group: its NoDVS baseline at the
	// top point, then one cell per swept strategy, normalised to that
	// baseline. The strategies resolve through the registries, so
	// off-table frequencies reject with the same messages dvsd gives.
	var strats []core.Strategy
	for _, f := range fs {
		if f == cfg.Node.Table.Top().Frequency {
			continue
		}
		strat, err := cliparse.Strategy("external", cfg.Node.Table, cliparse.StrategyFlags{Freq: float64(f)})
		if err != nil {
			fatal(err)
		}
		strats = append(strats, strat)
	}
	if *auto {
		strat, err := cliparse.Strategy("daemon", cfg.Node.Table, cliparse.StrategyFlags{})
		if err != nil {
			fatal(err)
		}
		strats = append(strats, strat)
	}
	var jobs []runner.Job
	for _, code := range splitList(*codes) {
		for _, cl := range splitList(*classes) {
			for _, rs := range splitList(*ranksFlag) {
				n, err := strconv.Atoi(rs)
				if err != nil {
					fatal(err)
				}
				// ranks 0 = the paper's count; unknown codes reject
				// with the same messages dvsd gives.
				w, err := cliparse.Workload(code, cl, n, "", 0, 0)
				if err != nil {
					fatal(err)
				}
				jobs = append(jobs, runner.Job{Workload: w, Strategy: core.NoDVS(), Config: cfg})
				for _, strat := range strats {
					jobs = append(jobs, runner.Job{Workload: w, Strategy: strat, Config: cfg})
				}
			}
		}
	}

	outs, _ := sweep.Execute(context.Background(), sweep.NewPlan(sweep.JobCells(jobs)),
		sweep.Local{Runner: runner.New(0)}, sweep.ExecOptions{})
	t := report.NewTable("NEMO sweep", "workload", "setting", "time s", "energy J", "avg W",
		"norm delay", "norm energy")
	var base core.Result
	for i, so := range outs {
		o := so.ToRunner()
		if o.Err != nil {
			fatal(o.Err)
		}
		if i%(1+len(strats)) == 0 {
			base = o.Result
		}
		addRow(t, o.Result, base)
	}
	fmt.Println(t.String())
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		if err := errors.Join(t.WriteCSV(f), f.Close()); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *csvPath)
	}
}

func addRow(t *report.Table, r, base core.Result) {
	n := core.Normalize(r, base)
	t.AddRow(r.Name, r.Strategy,
		fmt.Sprintf("%.2f", r.Elapsed.Seconds()),
		fmt.Sprintf("%.0f", r.Energy),
		fmt.Sprintf("%.1f", r.AvgPower()),
		report.Norm(n.Delay), report.Norm(n.Energy))
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nemo:", err)
	os.Exit(1)
}
