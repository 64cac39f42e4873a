package flow

import (
	"context"
	"time"

	defengine "splitmfg/internal/defense/engine"

	"splitmfg/internal/cell"
	"splitmfg/internal/netlist"
	"splitmfg/internal/route"
	"splitmfg/internal/timing"
)

// StageDefense is emitted once per distinct defense that completes during
// a matrix evaluation (Detail carries the defense name). A name requested
// twice is computed — and reported — once; a failed build emits no event,
// the error surfaces from EvaluateMatrix instead.
const StageDefense Stage = "defense"

// MatrixOptions parameterizes EvaluateMatrix.
type MatrixOptions struct {
	Defenses     []string     // defense-engine names (rows; default "randomize-correction")
	Attackers    []string     // attacker-engine names (columns; default "proximity")
	SplitLayers  []int        // layers each pair is attacked at (default M3,M4,M5)
	Seed         int64        // master seed; every (defense, attacker, layer) derives its own stream
	PatternWords int          // 64-pattern words for OER/HD (default 256)
	Parallelism  int          // concurrent defense rows and layer attacks; 0 = GOMAXPROCS, 1 = serial
	LiftLayer    int          // lift layer for lifting defenses (default 6)
	UtilPercent  int          // placement utilization (default 70)
	TargetOER    float64      // randomization stop criterion (default 0.999)
	Fraction     float64      // perturbed fraction for prior-art defenses (0 = published-ish defaults)
	Progress     ProgressFunc // optional per-defense / per-layer completion events

	// RouteParallelism is the worker count for wave-parallel net routing
	// inside each defense build (0 = the row's share of Parallelism, so
	// the route workers of concurrent rows do not multiply; 1 = serial).
	// Results are byte-identical at every level.
	RouteParallelism int

	// RouteStrategy selects flat or hierarchical batched routing for every
	// build (zero = auto, resolved per design by die area).
	RouteStrategy route.Strategy
}

// suiteOptions is the one-replicate suite a matrix runs as, with the
// suite's defaults applied; EvaluateMatrix adds the one benchmark.
func (o MatrixOptions) suiteOptions() SuiteOptions {
	return SuiteOptions{
		Defenses:         o.Defenses,
		Attackers:        o.Attackers,
		SplitLayers:      o.SplitLayers,
		Seed:             o.Seed,
		PatternWords:     o.PatternWords,
		Parallelism:      o.Parallelism,
		TargetOER:        o.TargetOER,
		Fraction:         o.Fraction,
		RouteParallelism: o.RouteParallelism,
		RouteStrategy:    o.RouteStrategy,
	}.withDefaults()
}

// MatrixRow is one defense's full outcome: its PPA cost relative to the
// unprotected baseline plus the attacker panel's results. The cells of
// the paper's Tables 4/5 cross product are Security.PerAttacker (one
// AttackerResult per requested attacker, in request order); Security also
// carries the full per-layer detail.
type MatrixRow struct {
	Defense  string
	Swaps    int // connectivity exchanges the scheme performed
	PPA      timing.PPA
	AreaOH   float64 // percent vs the unprotected baseline
	PowerOH  float64
	DelayOH  float64
	Metrics  map[string]float64 // scheme-specific extras
	Security SecurityResult
	Elapsed  time.Duration
}

// MatrixResult is the defense×attacker cross matrix over one design.
type MatrixResult struct {
	BasePPA timing.PPA  // the unprotected baseline's PPA
	Rows    []MatrixRow // one per requested defense, in request order
}

// EvaluateMatrix builds every requested defense on the netlist and runs
// every requested attacker against it at each split layer — the full cross
// product behind the paper's Tables 4 and 5. Rows are defenses, columns are
// attackers, and each cell averages CCR/OER/HD over the split layers; each
// row also carries the defense's PPA overhead against the unprotected
// baseline.
//
// It is a one-benchmark, one-replicate suite: the suite's job core builds
// the baseline and the defense rows. Every (defense, attacker, layer)
// triple derives its own RNG stream from the master seed and rows land in
// request order, so the result — and its serialized MatrixReport — is
// byte-identical at every parallelism level. A defense name requested
// twice is computed once (the suite cache keys cells by defense name); an
// attacker requested twice within a layer is deduplicated by the attack
// engine's per-layer memo. Progress carries StageAttack per layer and
// StageDefense per distinct defense, never suite-level events. The first
// defense to fail cancels the rest; when several fail, which error is
// returned depends on scheduling.
func EvaluateMatrix(ctx context.Context, nl *netlist.Netlist, lib *cell.Library, opt MatrixOptions) (MatrixResult, error) {
	so := opt.suiteOptions()
	so.Benchmarks = []SuiteBenchmark{{Netlist: nl, LiftLayer: opt.LiftLayer, UtilPercent: opt.UtilPercent}}
	jobs, err := runSuite(ctx, lib, so, opt.Progress)
	if err != nil {
		return MatrixResult{}, err
	}
	return MatrixResult{BasePPA: jobs.basePPA[0], Rows: jobs.cells}, nil
}

// evaluateDefense computes one matrix row: build the defense's layout with
// a name-derived seed, analyze its PPA against the baseline, then run the
// full attacker panel over the split layers with an independent
// name-derived evaluation seed.
func evaluateDefense(ctx context.Context, nl *netlist.Netlist, lib *cell.Library,
	name string, basePPA timing.PPA, parallelism int, opt MatrixOptions) (MatrixRow, error) {
	start := time.Now()
	row := MatrixRow{Defense: name}
	def, _ := defengine.Lookup(name) // validated up front in runSuite
	// Every defense receives the same scope seed (the defengine.Options
	// contract, mirroring attack engines): each scheme derives its own
	// streams by label, and the shared "randomize" label is what keeps
	// naive-lifted protecting exactly randomize-correction's sink set.
	routeP := opt.RouteParallelism
	if routeP == 0 {
		routeP = parallelism // the row's share of the one parallelism budget
	}
	prot, err := def.Protect(ctx, nl, lib, defengine.Options{
		Seed:             defengine.DeriveSeed(opt.Seed, "defense"),
		LiftLayer:        opt.LiftLayer,
		UtilPercent:      opt.UtilPercent,
		TargetOER:        opt.TargetOER,
		Fraction:         opt.Fraction,
		RouteParallelism: routeP,
		RouteStrategy:    opt.RouteStrategy,
	})
	if err != nil {
		return row, err
	}
	row.Swaps = prot.Swaps
	row.Metrics = prot.Metrics

	// Lifting schemes are scored on the restored design against the
	// original netlist (the erroneous FEOL netlist is not what the chip
	// computes after BEOL restoration); flat schemes on the design itself.
	if prot.Corr != nil {
		row.PPA, err = timing.AnalyzeRestored(prot.Design, nl, prot.Design.Masters, lib)
	} else {
		row.PPA, err = timing.AnalyzeDesign(prot.Design, lib)
	}
	if err != nil {
		return row, err
	}
	row.AreaOH, row.PowerOH, row.DelayOH = row.PPA.Overhead(basePPA)

	sec, err := EvaluateSecurity(ctx, prot.Design, nl, EvalOptions{
		SplitLayers:  opt.SplitLayers,
		Attackers:    opt.Attackers,
		OnlyPins:     prot.ProtectedPins,
		Seed:         defengine.DeriveSeed(opt.Seed, "matrix/"+name),
		PatternWords: opt.PatternWords,
		Parallelism:  parallelism,
		Progress:     opt.Progress,
	})
	if err != nil {
		return row, err
	}
	row.Security = sec
	row.Elapsed = time.Since(start)
	return row, nil
}
