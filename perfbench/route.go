package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"time"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/geom"
	"splitmfg/internal/layout"
	"splitmfg/internal/netlist"
	"splitmfg/internal/place"
	"splitmfg/internal/route"
)

// route-sb18: superblue18 bound, placed at its published utilization,
// routed with RouteAll under the default strategy (which resolves to hier
// on this die) and split after M5 — the BenchmarkSuperblueEndToEnd shape.
// Generating the netlist is set-up: it is this workload's input, as
// loading c7552 is protect-c7552's. The seed drives the placement.
const routeSplitLayer = 5

type routeWorkload struct {
	nl   *netlist.Netlist
	lib  *cell.Library
	util int
	seed int64
	par  int
}

func setupRoute(cfg runConfig, tr *tracer) (workload, error) {
	const name = "superblue18"
	lib := cell.NewNangate45Like()
	util, err := bench.SuperblueUtil(name)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("bench.generate", 0)
	nl, err := bench.Superblue(name, cfg.sizes.superblueScale)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &routeWorkload{nl: nl, lib: lib, util: util, seed: cfg.seed, par: cfg.par}, nil
}

type routeOutcome struct {
	d  *layout.Design
	sv *layout.SplitView
}

func (w *routeWorkload) op(ctx context.Context, tr *tracer) (outcome, error) {
	sp := tr.begin("cell.bind", tr.opRoot())
	masters, err := w.lib.Bind(w.nl)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("place.place", tr.opRoot())
	pl, err := place.Place(w.nl, masters, place.Options{UtilPercent: w.util, Seed: w.seed})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d := layout.NewDesign(w.nl, masters, pl, route.Options{Parallelism: w.par})
	sp = tr.begin("layout.route_all", tr.opRoot())
	err = d.RouteAll(nil)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("layout.split", tr.opRoot())
	sv, err := d.Split(routeSplitLayer)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &routeOutcome{d: d, sv: sv}, nil
}

func (o *routeOutcome) checks() []check {
	return []check{
		{"routing", o.d.Router.Validate},
		{"split", func() error {
			if len(o.sv.VPins) == 0 || len(o.sv.Frags) == 0 {
				return fmt.Errorf("M%d split is empty (%d vpins, %d fragments)", routeSplitLayer, len(o.sv.VPins), len(o.sv.Frags))
			}
			return nil
		}},
	}
}

func (o *routeOutcome) report() ([]byte, error) {
	return json.Marshal(struct {
		Stats            route.Stats
		Hier             route.HierStats
		VPins, Fragments int
	}{o.d.Router.ComputeStats(), o.d.HierStats(), len(o.sv.VPins), len(o.sv.Frags)})
}

func (o *routeOutcome) quality() map[string]float64 {
	st := o.d.Router.ComputeStats()
	return map[string]float64{
		"wirelength_mm":  float64(st.TotalWirelength) / 1e6,
		"vias":           float64(st.TotalVias),
		"overflow_edges": float64(st.OverflowEdges),
	}
}

func (w *routeWorkload) layerMetrics(ctx context.Context, out outcome, tr *tracer) (map[string]float64, error) {
	o := out.(*routeOutcome)
	gen := tr.durations("bench.generate")
	secs := make([]float64, len(gen))
	for i, d := range gen {
		secs[i] = d.Seconds()
	}
	m := map[string]float64{
		"bench.generate_s":   median(secs),
		"cell.bind_s":        tr.seconds("cell.bind"),
		"place.place_s":      tr.seconds("place.place"),
		"layout.route_all_s": tr.seconds("layout.route_all"),
		"layout.split_s":     tr.seconds("layout.split"),
	}
	rm, err := replayRoute(tr, o.d, w.par)
	if err != nil {
		return nil, err
	}
	for k, v := range rm {
		m[k] = v
	}
	return m, nil
}

// replayRoute routes the op's placement again the way RouteAll does —
// the same (hpwl, id) job order, terminals and default lifts, through
// RouteEntities and then NegotiateReroute(3) — timing the batch and the
// negotiation separately, and requires the final routing statistics and
// hierarchical counters to equal RouteAll's.
func replayRoute(tr *tracer, ref *layout.Design, par int) (map[string]float64, error) {
	parent := tr.begin("replay.route", 0)
	defer tr.end(parent)
	var waves, waveNets int
	d := layout.NewDesign(ref.Netlist, ref.Masters, ref.Placement, route.Options{
		Parallelism: par,
		OnWave:      func(_, _, nets int, _ time.Duration) { waves++; waveNets += nets },
	})
	type job struct{ id, hpwl int }
	var jobs []job
	for _, n := range d.Netlist.Nets {
		if n.FanoutCount() > 0 {
			jobs = append(jobs, job{n.ID, geom.HPWL(d.Placement.NetPoints(d.Netlist, n.ID))})
		}
	}
	slices.SortFunc(jobs, func(a, b job) int {
		if a.hpwl != b.hpwl {
			return a.hpwl - b.hpwl
		}
		return a.id - b.id
	})
	ejobs := make([]layout.EntityJob, len(jobs))
	for i, j := range jobs {
		ejobs[i] = layout.EntityJob{RouteID: j.id, NetID: j.id, Pins: d.TaggedNetPins(j.id),
			Lift: layout.DefaultLift(j.hpwl / d.Grid.GCell)}
	}
	sp := tr.begin("route.batch", parent)
	err := d.RouteEntities(ejobs)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	before := d.Router.ComputeStats().OverflowEdges
	sp = tr.begin("route.negotiate", parent)
	d.Router.NegotiateReroute(3)
	tr.end(sp)
	got, want := d.Router.ComputeStats(), ref.Router.ComputeStats()
	if !reflect.DeepEqual(got, want) {
		return nil, fmt.Errorf("replayed routing %d nm, %d vias, %d overflow; RouteAll %d nm, %d vias, %d overflow",
			got.TotalWirelength, got.TotalVias, got.OverflowEdges, want.TotalWirelength, want.TotalVias, want.OverflowEdges)
	}
	hs, hw := d.HierStats(), ref.HierStats()
	if hs != hw {
		return nil, fmt.Errorf("replayed hier counters %+v, RouteAll %+v", hs, hw)
	}
	return map[string]float64{
		"route.batch_s":         tr.seconds("route.batch"),
		"route.negotiate_s":     tr.seconds("route.negotiate"),
		"route.overflow_before": float64(before),
		"route.overflow_after":  float64(got.OverflowEdges),
		"route.nets":            float64(len(jobs)),
		"route.waves":           float64(waves),
		"route.wave_nets":       float64(waveNets),
		"route.corridor_nets":   float64(hs.CorridorNets),
		"route.flat_fallbacks":  float64(hs.FlatFallbacks),
		"route.batch_escapes":   float64(hs.BatchEscapes),
		"route.nego_corridor":   float64(hs.NegoCorridor),
	}, nil
}
