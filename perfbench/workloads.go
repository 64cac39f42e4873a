package main

import (
	"context"
	"sort"
)

// workload is one set-up instance of a benchmark workload.
type workload interface {
	// op runs one timed operation. tr is nil for untraced ops, which
	// attach no hooks to the program at all.
	op(ctx context.Context, tr *tracer) (outcome, error)
	// layerMetrics derives the per-layer metrics of the traced op from its
	// spans and, where the workload has one, from a replay that re-times
	// the layer calls one by one. The replay must reproduce the op's
	// results exactly, or it returns an error.
	layerMetrics(ctx context.Context, o outcome, tr *tracer) (map[string]float64, error)
}

// outcome is what one op produced.
type outcome interface {
	checks() []check         // the correctness checks of one op
	report() ([]byte, error) // deterministic report; every op's must equal the first's
	quality() map[string]float64
}

// check is one named correctness check of an op's output.
type check struct {
	name string
	run  func() error
}

// setupFunc builds a workload's inputs from the seed: everything that
// happens before the first timed op. tr is non-nil in trace mode.
type setupFunc func(cfg runConfig, tr *tracer) (workload, error)

var workloads = map[string]setupFunc{
	"protect-c7552": setupProtect,
	"route-sb18":    setupRoute,
	"suite-iscas4":  setupSuite,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sizes are the inputs the workloads run on. The self-test swaps in tiny
// ones.
type sizes struct {
	protectDesign  string
	superblueScale int
	suiteDesigns   []string
}

var fullSizes = sizes{
	protectDesign:  "c7552",
	superblueScale: 200,
	suiteDesigns:   []string{"c432", "c880", "c1355", "c1908"},
}

type metricDef struct{ name, unit string }

// perLayerMetrics are the metrics a traced run reports, as declared in
// BENCHMARK.json. A workload that does not exercise a layer reports 0 for
// it; NOTES.md lists which workload measures which metric.
var perLayerMetrics = []metricDef{
	// Tracing itself.
	{"trace.wall_s", "s"},
	{"trace.untraced_wall_s", "s"},
	{"trace.overhead_pct", "%"},
	{"trace.coverage_pct", "%"},
	// Result quality; deterministic for a seed.
	{"ccr_pct", "%"},
	{"power_oh_pct", "%"},
	{"delay_oh_pct", "%"},
	{"wirelength_mm", "mm"},
	{"vias", "count"},
	{"overflow_edges", "count"},
	// route-sb18 phases and the routing replay.
	{"bench.generate_s", "s"},
	{"cell.bind_s", "s"},
	{"place.place_s", "s"},
	{"layout.route_all_s", "s"},
	{"layout.split_s", "s"},
	{"route.batch_s", "s"},
	{"route.negotiate_s", "s"},
	{"route.overflow_before", "count"},
	{"route.overflow_after", "count"},
	{"route.nets", "count"},
	{"route.waves", "count"},
	{"route.wave_nets", "count"},
	{"route.corridor_nets", "count"},
	{"route.flat_fallbacks", "count"},
	{"route.batch_escapes", "count"},
	{"route.nego_corridor", "count"},
	// protect-c7552 stages, summed over the baseline and every attempt.
	{"flow.protect_s", "s"},
	{"flow.evaluate_s", "s"},
	{"flow.attempts", "count"},
	{"flow.verify_s", "s"},
	{"randomize.randomize_s", "s"},
	{"randomize.swaps", "count"},
	{"correction.place_s", "s"},
	{"correction.route_s", "s"},
	{"correction.lift_s", "s"},
	{"correction.restore_s", "s"},
	{"timing.ppa_s", "s"},
	// protect-c7552 attack layers and the evaluate replay.
	{"attack.critical_layer_s", "s"},
	{"attack.sum_layer_s", "s"},
	{"attack.proximity_s", "s"},
	{"metrics.recover_s", "s"},
	{"sim.compare_s", "s"},
	{"attack.fragments", "count"},
	{"attack.candidates", "count"},
	{"layout.vpins", "count"},
	// suite-iscas4 orchestration.
	{"flow.suite_baseline_s", "s"},
	{"flow.suite_cell_s", "s"},
	{"flow.suite_cells", "count"},
	{"flow.cache_hits", "count"},
	{"flow.cache_misses", "count"},
	{"flow.pool_busy_frac", "ratio"},
}
