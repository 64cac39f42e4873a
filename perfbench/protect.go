package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"splitmfg/internal/attack/engine"
	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/flow"
	"splitmfg/internal/layout"
	"splitmfg/internal/metrics"
	"splitmfg/internal/netlist"
	"splitmfg/internal/route"
	"splitmfg/internal/sim"
)

// protect-c7552: the paper's flow on the ROADMAP's yardstick design —
// Protect (randomize, place and route the erroneous netlist, lift,
// restore through the BEOL, verify, PPA) and then Evaluate with the
// proximity attack at M3, M4 and M5. The settings are the public
// Pipeline's ISCAS defaults (lift M6, 70% utilization, 20% PPA budget,
// 256 pattern words) with the escalation capped at two attempts.
//
// The runner calls internal/flow, the engine behind the Pipeline facade,
// because its checks need the protected design's router, which the facade
// does not expose.
const (
	protectAttempts = 2
	protectWords    = 256
)

var protectLayers = []int{3, 4, 5}

type protectWorkload struct {
	nl   *netlist.Netlist
	lib  *cell.Library
	seed int64
	par  int
}

func setupProtect(cfg runConfig, tr *tracer) (workload, error) {
	sp := tr.begin("bench.load", 0)
	defer tr.end(sp)
	lib := cell.NewNangate45Like()
	nl, err := bench.Load(cfg.sizes.protectDesign, 1)
	if err != nil {
		return nil, err
	}
	return &protectWorkload{nl: nl, lib: lib, seed: cfg.seed, par: cfg.par}, nil
}

type protectOutcome struct {
	w   *protectWorkload
	cfg flow.Config
	res *flow.ProtectResult
	opt flow.EvalOptions
	sec flow.SecurityResult
}

func (w *protectWorkload) op(ctx context.Context, tr *tracer) (outcome, error) {
	cfg := flow.Config{
		LiftLayer: 6, UtilPercent: 70, PPABudgetPercent: 20, Seed: w.seed,
		MaxAttempts: protectAttempts, RouteParallelism: w.par,
	}
	sp := tr.begin("flow.protect", tr.opRoot())
	cfg.Progress = tr.progress(sp)
	res, err := flow.Protect(ctx, w.nl, w.lib, cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	opt := flow.EvalOptions{
		SplitLayers: protectLayers, Attackers: []string{"proximity"},
		OnlyPins: res.Protected.ProtectedSinks(), Seed: w.seed,
		PatternWords: protectWords, Parallelism: w.par,
	}
	sp = tr.begin("flow.evaluate", tr.opRoot())
	opt.Progress = tr.progress(sp)
	sec, err := flow.EvaluateSecurity(ctx, res.Protected.Design, w.nl, opt)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &protectOutcome{w: w, cfg: cfg, res: res, opt: opt, sec: sec}, nil
}

// checks: the BEOL restores the original netlist, structurally and by
// simulation, and the protected design's routing is valid.
func (o *protectOutcome) checks() []check {
	return []check{
		{"restoration", func() error {
			rec, err := o.res.Protected.RestoredNetlist()
			if err != nil {
				return err
			}
			if !rec.SameStructure(o.w.nl) {
				return fmt.Errorf("restored netlist differs from the original")
			}
			pats := sim.RandomPatterns(rand.New(rand.NewSource(o.w.seed)), o.w.nl.NumPIs(), protectWords)
			cmp, err := sim.Compare(o.w.nl, rec, pats, protectWords)
			if err != nil {
				return err
			}
			if cmp.OER != 0 {
				return fmt.Errorf("restored netlist OER %.4f, want 0", cmp.OER)
			}
			return nil
		}},
		{"routing", o.res.Protected.Design.Router.Validate},
	}
}

func (o *protectOutcome) report() ([]byte, error) {
	return json.Marshal(struct {
		Protect  flow.ProtectReport
		Security flow.SecurityReport
		Route    route.Stats
	}{
		o.res.Report(o.w.nl, o.cfg),
		o.sec.Report(o.w.nl.Name, o.opt),
		o.res.Protected.Design.Router.ComputeStats(),
	})
}

func (o *protectOutcome) quality() map[string]float64 {
	st := o.res.Protected.Design.Router.ComputeStats()
	return map[string]float64{
		"ccr_pct":        100 * o.sec.CCR,
		"power_oh_pct":   o.res.PowerOH,
		"delay_oh_pct":   o.res.DelayOH,
		"wirelength_mm":  float64(st.TotalWirelength) / 1e6,
		"vias":           float64(st.TotalVias),
		"overflow_edges": float64(st.OverflowEdges),
	}
}

func (w *protectWorkload) layerMetrics(ctx context.Context, out outcome, tr *tracer) (map[string]float64, error) {
	o := out.(*protectOutcome)
	m := map[string]float64{
		"flow.protect_s":          tr.seconds("flow.protect"),
		"flow.evaluate_s":         tr.seconds("flow.evaluate"),
		"flow.attempts":           float64(tr.count("randomize.randomize")), // one per attempt
		"flow.verify_s":           tr.seconds("flow.verify"),
		"randomize.randomize_s":   tr.seconds("randomize.randomize"),
		"randomize.swaps":         float64(o.res.Swaps),
		"correction.place_s":      tr.seconds("correction.place"),
		"correction.route_s":      tr.seconds("correction.route"),
		"correction.lift_s":       tr.seconds("correction.lift"),
		"correction.restore_s":    tr.seconds("correction.restore"),
		"timing.ppa_s":            tr.seconds("timing.ppa"),
		"attack.critical_layer_s": tr.maxSeconds("attack.layer"),
		"attack.sum_layer_s":      tr.seconds("attack.layer"),
	}
	rm, err := replayEvaluate(ctx, tr, o.res.Protected.Design, w.nl, o.opt, o.sec)
	if err != nil {
		return nil, err
	}
	for k, v := range rm {
		m[k] = v
	}
	return m, nil
}

// replayEvaluate re-runs EvaluateSecurity's per-layer work serially —
// Split, the proximity engine, RecoverNetlist and sim.Compare, with the
// seeds flow derives — timing each call, and requires every layer's
// VPins, fragments, CCR, OER and HD to equal the evaluation's.
func replayEvaluate(ctx context.Context, tr *tracer, d *layout.Design, ref *netlist.Netlist,
	opt flow.EvalOptions, sec flow.SecurityResult) (map[string]float64, error) {
	eng, ok := engine.Lookup("proximity")
	if !ok {
		return nil, fmt.Errorf("proximity engine not registered")
	}
	parent := tr.begin("replay.evaluate", 0)
	defer tr.end(parent)
	m := map[string]float64{}
	for i, layer := range opt.SplitLayers {
		got := sec.PerLayer[i]
		sp := tr.begin("layout.split", parent)
		sv, err := d.Split(layer)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		m["layout.vpins"] += float64(len(sv.VPins))
		if len(sv.VPins) != got.VPins {
			return nil, fmt.Errorf("M%d: replay %d vpins, evaluation %d", layer, len(sv.VPins), got.VPins)
		}
		if scoreProtected(d, sv, ref, nil, opt.OnlyPins).Protected == 0 {
			if !got.Vacuous {
				return nil, fmt.Errorf("M%d: replay vacuous, evaluation not", layer)
			}
			continue
		}
		scope := layerSeed(opt.Seed, layer)
		sp = tr.begin("attack.proximity", parent)
		res, err := engine.Run(ctx, eng, d, sv, engine.Options{Seed: scope, Ref: ref})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		m["attack.candidates"] += res.Metrics["candidates"]
		ccr := scoreProtected(d, sv, ref, res.Assignment, opt.OnlyPins)
		m["attack.fragments"] += float64(ccr.Protected)
		sp = tr.begin("metrics.recover", parent)
		rec := res.Recovered
		if rec == nil {
			rec = metrics.RecoverNetlist(d, sv, res.Assignment)
		}
		tr.end(sp)
		oer, hd := 1.0, 0.5 // a recovered netlist with loops counts as fully erroneous
		if !rec.HasCombLoop() {
			rng := rand.New(rand.NewSource(engine.DeriveSeed(scope, eng.Name()+"/patterns")))
			pats := sim.RandomPatterns(rng, ref.NumPIs(), opt.PatternWords)
			sp = tr.begin("sim.compare", parent)
			cmp, err := sim.Compare(ref, rec, pats, opt.PatternWords)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			oer, hd = cmp.OER, cmp.HD
		}
		if ccr.Protected != got.Fragments || ccr.CCR != got.CCR || oer != got.OER || hd != got.HD {
			return nil, fmt.Errorf("M%d: replay frags/CCR/OER/HD %d/%v/%v/%v, evaluation %d/%v/%v/%v",
				layer, ccr.Protected, ccr.CCR, oer, hd, got.Fragments, got.CCR, got.OER, got.HD)
		}
	}
	m["layout.split_s"] = tr.seconds("layout.split")
	m["attack.proximity_s"] = tr.seconds("attack.proximity")
	m["metrics.recover_s"] = tr.seconds("metrics.recover")
	m["sim.compare_s"] = tr.seconds("sim.compare")
	return m, nil
}

// layerSeed is flow's per-layer seed derivation (a splitmix64 finalizer
// over the master seed and layer), restated so the replay can reproduce
// each layer's attack and pattern streams.
func layerSeed(seed int64, layer int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(layer+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// scoreProtected is flow's CCR scoring restricted to fragments holding a
// protected sink pin, restated for the replay.
func scoreProtected(d *layout.Design, sv *layout.SplitView, ref *netlist.Netlist,
	a metrics.Assignment, onlyPins map[netlist.PinRef]bool) metrics.CCRResult {
	var res metrics.CCRResult
	truth := metrics.TrueAssignment(d, sv, ref)
	for _, fid := range sv.SinkFrags() {
		hit := false
		for _, sp := range sv.Frags[fid].SinkPins() {
			if sp.Role == layout.RoleSink && onlyPins[sp.Ref] {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		res.Protected++
		if got, ok := a[fid]; ok && got == truth[fid] && got >= 0 {
			res.Correct++
		}
	}
	if res.Protected > 0 {
		res.CCR = float64(res.Correct) / float64(res.Protected)
	}
	return res
}
