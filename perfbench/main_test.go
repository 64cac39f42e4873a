package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinySizes keep the self-test to seconds: c432 instead of c7552,
// superblue18 at scale 400 instead of 200, and a one-design suite. At
// scale 800 no net crosses M5, so the split check rightly fails there.
var tinySizes = sizes{protectDesign: "c432", superblueScale: 400, suiteDesigns: []string{"c432"}}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, runner %v", names, workloadNames())
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// measured lists, per workload, the per-layer metrics that must be
// non-zero: the layers the workload exercises (NOTES.md).
var measured = map[string][]string{
	"protect-c7552": {
		"trace.wall_s", "trace.untraced_wall_s", "trace.coverage_pct",
		"ccr_pct", "power_oh_pct", "wirelength_mm", "vias",
		"flow.protect_s", "flow.evaluate_s", "flow.attempts", "flow.verify_s",
		"randomize.randomize_s", "randomize.swaps", "correction.place_s", "correction.route_s",
		"correction.lift_s", "correction.restore_s", "timing.ppa_s",
		"attack.critical_layer_s", "attack.sum_layer_s", "layout.split_s", "attack.proximity_s",
		"metrics.recover_s", "attack.fragments", "attack.candidates", "layout.vpins",
	},
	"route-sb18": {
		"trace.wall_s", "trace.untraced_wall_s", "trace.coverage_pct",
		"wirelength_mm", "vias",
		"bench.generate_s", "cell.bind_s", "place.place_s", "layout.route_all_s", "layout.split_s",
		"route.batch_s", "route.negotiate_s", "route.nets", // tiny dies route flat: no corridors
	},
	"suite-iscas4": {
		"trace.wall_s", "trace.untraced_wall_s", "trace.coverage_pct",
		"ccr_pct", "power_oh_pct",
		"flow.suite_baseline_s", "flow.suite_cell_s", "flow.suite_cells",
		"flow.cache_hits", "flow.cache_misses", "flow.pool_busy_frac",
	},
}

// TestWorkloads runs every workload on tiny inputs, untraced and traced,
// and checks that each run's ops pass every check and that the result
// carries exactly the metrics BENCHMARK.json declares, with its units.
func TestWorkloads(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := runConfig{sizes: tinySizes, seed: 2, par: 2, duration: 1, trace: trace,
					spansPath: filepath.Join(t.TempDir(), "spans.jsonl")}
				res, err := measure(context.Background(), workloads[name], cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				want, ops := endToEnd, minOps
				if trace {
					want, ops = perLayer, minOps+1
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != ops {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d, want %d ops passing",
						trace, res.Correct, res.Attempted, res.Failed, ops)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json declares %d", trace, len(res.Metrics), len(want))
				}
				for m, unit := range want {
					got, ok := res.Metrics[m]
					if !ok || got.Unit != unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %q", trace, m, got, unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m, got.Value)
					}
				}
				if trace {
					for _, m := range measured[name] {
						if res.Metrics[m].Value <= 0 {
							t.Errorf("per-layer metric %s = %v, want > 0", m, res.Metrics[m].Value)
						}
					}
					if _, err := os.Stat(cfg.spansPath); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
			}
		})
	}
}

// TestChecks runs one op of each workload on tiny inputs and requires the
// workload's named checks to be present and to pass.
func TestChecks(t *testing.T) {
	want := map[string]string{
		"protect-c7552": "restoration,routing",
		"route-sb18":    "routing,split",
		"suite-iscas4":  "scored",
	}
	for _, name := range workloadNames() {
		w, err := workloads[name](runConfig{sizes: tinySizes, seed: 1, par: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		o, err := w.op(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, c := range o.checks() {
			names = append(names, c.name)
			if err := c.run(); err != nil {
				t.Errorf("%s: check %s: %v", name, c.name, err)
			}
		}
		if got := strings.Join(names, ","); got != want[name] {
			t.Errorf("%s: checks %s, want %s", name, got, want[name])
		}
	}
}

// fake is a workload whose reports and replay can be made to misbehave.
type fake struct {
	ops       int
	drift     bool // every op reports differently
	replayErr error
}

type fakeOutcome struct{ n int }

func (f *fake) op(context.Context, *tracer) (outcome, error) {
	f.ops++
	if f.drift {
		return fakeOutcome{f.ops}, nil
	}
	return fakeOutcome{}, nil
}

func (f *fake) layerMetrics(context.Context, outcome, *tracer) (map[string]float64, error) {
	return map[string]float64{"route.nets": 1}, f.replayErr
}

func (o fakeOutcome) checks() []check             { return nil }
func (o fakeOutcome) report() ([]byte, error)     { return json.Marshal(o.n) }
func (o fakeOutcome) quality() map[string]float64 { return nil }

// TestFailures: a report that differs from the first op's fails the op,
// and a replay that disagrees with its op fails the run and publishes no
// per-layer numbers.
func TestFailures(t *testing.T) {
	run := func(f *fake, trace bool) *result {
		t.Helper()
		setup := func(runConfig, *tracer) (workload, error) { return f, nil }
		cfg := runConfig{duration: 1, trace: trace, spansPath: filepath.Join(t.TempDir(), "s.jsonl")}
		res, err := measure(context.Background(), setup, cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(&fake{drift: true}, false); res.Correct || res.Failed != minOps-1 {
		t.Errorf("drifting reports: correct=%v failed=%d, want %d failed", res.Correct, res.Failed, minOps-1)
	}
	if res := run(&fake{}, true); !res.Correct || res.Metrics["route.nets"].Value != 1 {
		t.Errorf("good replay: %+v", res)
	}
	res := run(&fake{replayErr: errors.New("mismatch")}, true)
	if res.Correct || len(res.Metrics) != 0 {
		t.Errorf("failed replay: correct=%v with %d metrics, want no metrics", res.Correct, len(res.Metrics))
	}
}
