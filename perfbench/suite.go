package main

import (
	"context"
	"encoding/json"
	"fmt"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/flow"
)

// suite-iscas4: the paper's Tables 4/5 orchestration over four small
// ISCAS-85 designs — three defenses by three attackers, two seed
// replicates, 64 pattern words. Each job is small, so the worker pool,
// the singleflight result cache and the defense and attack engines
// dominate, not routing.
var (
	suiteDefenses  = []string{"randomize-correction", "pin-swapping", "naive-lifted"}
	suiteAttackers = []string{"proximity", "greedy", "random"}
)

const (
	suiteReplicates = 2
	suiteWords      = 64
)

type suiteWorkload struct {
	lib     *cell.Library
	benches []flow.SuiteBenchmark
	seed    int64
	par     int
}

func setupSuite(cfg runConfig, tr *tracer) (workload, error) {
	sp := tr.begin("bench.load", 0)
	defer tr.end(sp)
	w := &suiteWorkload{lib: cell.NewNangate45Like(), seed: cfg.seed, par: cfg.par}
	for _, name := range cfg.sizes.suiteDesigns {
		nl, err := bench.Load(name, 1)
		if err != nil {
			return nil, err
		}
		// The public Pipeline's ISCAS settings: lift M6, 70% utilization.
		w.benches = append(w.benches, flow.SuiteBenchmark{Name: name, Netlist: nl, Scale: 1, LiftLayer: 6, UtilPercent: 70})
	}
	return w, nil
}

type suiteOutcome struct {
	opt flow.SuiteOptions
	res flow.SuiteResult
}

func (w *suiteWorkload) op(ctx context.Context, tr *tracer) (outcome, error) {
	opt := flow.SuiteOptions{
		Benchmarks: w.benches, Defenses: suiteDefenses, Attackers: suiteAttackers,
		Seed: w.seed, Replicates: suiteReplicates, PatternWords: suiteWords,
		Parallelism: w.par, // route workers: each job's share of w.par, as the Pipeline defaults
	}
	sp := tr.begin("flow.suite", tr.opRoot())
	opt.Progress = tr.progress(sp)
	res, err := flow.EvaluateSuite(ctx, w.lib, opt)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &suiteOutcome{opt: opt, res: res}, nil
}

func (o *suiteOutcome) checks() []check { return []check{{"scored", o.scored}} }

// scored checks that every (benchmark, defense, attacker) cell was scored.
func (o *suiteOutcome) scored() error {
	if len(o.res.Benches) != len(o.opt.Benchmarks) {
		return fmt.Errorf("%d benchmark results for %d benchmarks", len(o.res.Benches), len(o.opt.Benchmarks))
	}
	for _, b := range o.res.Benches {
		if len(b.Rows) != len(suiteDefenses) {
			return fmt.Errorf("%s: %d defense rows, want %d", b.Bench, len(b.Rows), len(suiteDefenses))
		}
		for _, row := range b.Rows {
			if len(row.Cells) != len(suiteAttackers) {
				return fmt.Errorf("%s/%s: %d attacker cells, want %d", b.Bench, row.Defense, len(row.Cells), len(suiteAttackers))
			}
			for _, c := range row.Cells {
				if !c.Scored {
					return fmt.Errorf("%s/%s/%s: cell not scored", b.Bench, row.Defense, c.Attacker)
				}
			}
		}
	}
	return nil
}

func (o *suiteOutcome) report() ([]byte, error) { return json.Marshal(o.res.Report(o.opt)) }

// quality reads the randomize-correction row of the cross-benchmark
// aggregate: its proximity CCR and PPA overheads, averaged over designs.
func (o *suiteOutcome) quality() map[string]float64 {
	row := o.res.Aggregate[0] // suiteDefenses[0] = randomize-correction
	return map[string]float64{
		"ccr_pct":      100 * row.Cells[0].CCR.Mean, // suiteAttackers[0] = proximity
		"power_oh_pct": row.PowerOH.Mean,
		"delay_oh_pct": row.DelayOH.Mean,
	}
}

func (w *suiteWorkload) layerMetrics(_ context.Context, out outcome, tr *tracer) (map[string]float64, error) {
	o := out.(*suiteOutcome)
	baseline, cells := tr.seconds("flow.suite_baseline"), tr.seconds("flow.suite_cell")
	return map[string]float64{
		"flow.suite_baseline_s": baseline,
		"flow.suite_cell_s":     cells,
		"flow.suite_cells":      float64(tr.count("flow.suite_cell")),
		"flow.cache_hits":       float64(o.res.Cache.Hits),
		"flow.cache_misses":     float64(o.res.Cache.Misses),
		// Busy seconds over the pool's capacity during the op.
		"flow.pool_busy_frac": (baseline + cells) / (tr.seconds("op") * float64(w.par)),
	}, nil
}
