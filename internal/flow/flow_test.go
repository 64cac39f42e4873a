package flow

import (
	"context"
	"strings"
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/cache"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
	"splitmfg/internal/layout"
	"splitmfg/internal/netlist"
)

// TestHeadlineResult reproduces the paper's central claim on one
// benchmark: the proximity attack recovers a meaningful fraction of the
// original layout's connections, but zero of the protected (randomized)
// ones, with OER ≈ 100% on the recovered netlist.
func TestHeadlineResult(t *testing.T) {
	nl, err := bench.ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	res, err := Protect(context.Background(), nl, lib, Config{Seed: 1, LiftLayer: 6, UtilPercent: 70})
	if err != nil {
		t.Fatal(err)
	}
	if res.OER < 0.95 {
		t.Fatalf("randomization OER = %.3f", res.OER)
	}

	// Attack the original.
	orig, err := EvaluateSecurity(context.Background(), res.Baseline, nl, EvalOptions{SplitLayers: []int{3, 4, 5}, Seed: 1, PatternWords: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Attack the protected layout, scoring the protected sinks.
	prot, err := EvaluateSecurity(context.Background(), res.Protected.Design, nl,
		EvalOptions{SplitLayers: []int{3, 4, 5}, OnlyPins: res.Protected.ProtectedSinks(), Seed: 1, PatternWords: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("original: CCR=%.2f OER=%.2f HD=%.2f over %d frags", orig.CCR, orig.OER, orig.HD, orig.Protected)
	t.Logf("proposed: CCR=%.2f OER=%.2f HD=%.2f over %d frags", prot.CCR, prot.OER, prot.HD, prot.Protected)
	if prot.Protected == 0 {
		t.Fatal("no protected fragments to attack")
	}
	// The paper reports exactly 0%; at our die sizes a few chance hits
	// (nearest-driver coincidences) remain possible, so allow chance level.
	if prot.CCR > 0.08 {
		t.Fatalf("protected CCR = %.3f, paper reports 0%%", prot.CCR)
	}
	if prot.OER < 0.9 {
		t.Fatalf("protected OER = %.3f, paper reports ≈100%%", prot.OER)
	}
	if prot.HD < 0.05 {
		t.Fatalf("protected HD = %.3f, paper reports ≈40%%", prot.HD)
	}
	if orig.CCR <= prot.CCR {
		t.Fatalf("defense did not reduce CCR: orig=%.3f prot=%.3f", orig.CCR, prot.CCR)
	}
}

func TestPPAWithinBudgetOrBackoff(t *testing.T) {
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	res, err := Protect(context.Background(), nl, lib, Config{Seed: 2, PPABudgetPercent: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.AreaOH != 0 {
		t.Fatalf("area overhead %.2f%%, paper reports zero", res.AreaOH)
	}
	if res.PowerOH < 0 {
		t.Fatalf("negative power overhead %.2f%% suspicious", res.PowerOH)
	}
	if res.Swaps == 0 {
		t.Fatal("no randomization applied")
	}
	t.Logf("c432: swaps=%d power=%.1f%% delay=%.1f%% (budget %.0f%%)",
		res.Swaps, res.PowerOH, res.DelayOH, res.Budget)
}

func TestEvaluateSecurityEmptyLayers(t *testing.T) {
	nl, _ := bench.ISCAS85("c432")
	lib := cell.NewNangate45Like()
	res, err := Protect(context.Background(), nl, lib, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// M9 split: nothing crosses; result must be vacuous, not an error.
	sec, err := EvaluateSecurity(context.Background(), res.Baseline, nl, EvalOptions{SplitLayers: []int{9}, Seed: 3, PatternWords: 16})
	if err != nil {
		t.Fatal(err)
	}
	if sec.Layers != 0 || sec.Protected != 0 {
		t.Fatalf("expected vacuous result, got %+v", sec)
	}
}

// TestEvaluateSecurityUnknownAttacker: an unregistered engine name must
// fail up front with an error naming the registry.
func TestEvaluateSecurityUnknownAttacker(t *testing.T) {
	nl, _ := bench.ISCAS85("c432")
	lib := cell.NewNangate45Like()
	d, err := correction.BuildOriginal(nl, lib, correction.Options{LiftLayer: 6, UtilPercent: 70, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = EvaluateSecurity(context.Background(), d, nl,
		EvalOptions{Attackers: []string{"proximity", "nope"}, PatternWords: 16})
	if err == nil {
		t.Fatal("unknown attacker accepted")
	}
}

// TestEvaluateSecurityMultiAttacker: every requested engine gets a section
// on every non-vacuous layer, aggregates line up, and the headline numbers
// track the primary (first scoring) attacker.
func TestEvaluateSecurityMultiAttacker(t *testing.T) {
	nl, err := bench.ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	d, err := correction.BuildOriginal(nl, lib, correction.Options{LiftLayer: 6, UtilPercent: 70, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	attackers := []string{"proximity", "crouting", "random"}
	sec, err := EvaluateSecurity(context.Background(), d, nl, EvalOptions{
		SplitLayers: []int{3, 4, 5}, Attackers: attackers, Seed: 1, PatternWords: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.PerAttacker) != len(attackers) {
		t.Fatalf("got %d attacker aggregates, want %d", len(sec.PerAttacker), len(attackers))
	}
	for i, ar := range sec.PerAttacker {
		if ar.Attacker != attackers[i] {
			t.Fatalf("aggregate %d is %q, want %q (request order)", i, ar.Attacker, attackers[i])
		}
	}
	var prox, crout AttackerResult
	for _, ar := range sec.PerAttacker {
		switch ar.Attacker {
		case "proximity":
			prox = ar
		case "crouting":
			crout = ar
		}
	}
	if !prox.Scored || prox.Fragments == 0 {
		t.Fatalf("proximity did not score: %+v", prox)
	}
	if crout.Scored {
		t.Fatalf("crouting claims to have scored an assignment: %+v", crout)
	}
	if len(crout.Metrics) == 0 {
		t.Fatal("crouting aggregate carries no metrics")
	}
	// Headline == primary attacker (proximity is first and scores).
	if sec.CCR != prox.CCR || sec.OER != prox.OER || sec.HD != prox.HD {
		t.Fatalf("headline %v/%v/%v != primary proximity %v/%v/%v",
			sec.CCR, sec.OER, sec.HD, prox.CCR, prox.OER, prox.HD)
	}
	for _, lr := range sec.PerLayer {
		if lr.Vacuous {
			if len(lr.Attacks) != 0 {
				t.Fatalf("vacuous layer M%d has attack sections", lr.Layer)
			}
			continue
		}
		if len(lr.Attacks) != len(attackers) {
			t.Fatalf("layer M%d has %d attack sections, want %d", lr.Layer, len(lr.Attacks), len(attackers))
		}
		for i, ao := range lr.Attacks {
			if ao.Attacker != attackers[i] {
				t.Fatalf("layer M%d section %d is %q, want %q", lr.Layer, i, ao.Attacker, attackers[i])
			}
		}
	}
}

// TestEvaluateSecurityMetricsOnlyAttacker: with only a metrics-only
// engine requested (crouting), non-vacuous layers must be marked unscored
// and excluded from the headline averages rather than reporting a bogus
// CCR/OER/HD of zero.
func TestEvaluateSecurityMetricsOnlyAttacker(t *testing.T) {
	nl, err := bench.ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	d, err := correction.BuildOriginal(nl, lib, correction.Options{LiftLayer: 6, UtilPercent: 70, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sec, err := EvaluateSecurity(context.Background(), d, nl, EvalOptions{
		SplitLayers: []int{3, 4, 5}, Attackers: []string{"crouting"}, Seed: 1, PatternWords: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sec.Layers != 0 || sec.Protected != 0 || sec.CCR != 0 || sec.OER != 0 {
		t.Fatalf("metrics-only evaluation claims scored layers: %+v", sec)
	}
	sawAttack := false
	for _, lr := range sec.PerLayer {
		if lr.Vacuous {
			continue
		}
		if lr.Scored {
			t.Fatalf("layer M%d claims a score from a metrics-only engine", lr.Layer)
		}
		if len(lr.Attacks) == 1 && len(lr.Attacks[0].Metrics) > 0 {
			sawAttack = true
		}
	}
	if !sawAttack {
		t.Fatal("no crouting metrics section on any layer")
	}
}

// TestNaiveLiftingSitsBetween verifies the paper's three-way ordering on
// via counts: proposed adds the most high-layer vias, naive lifting fewer,
// original the least (Table 2's qualitative content, at ISCAS scale).
func TestNaiveLiftingSitsBetween(t *testing.T) {
	nl, err := bench.ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	res, err := Protect(context.Background(), nl, lib, Config{Seed: 4, LiftLayer: 6, UtilPercent: 70})
	if err != nil {
		t.Fatal(err)
	}
	var sinks []netlist.PinRef
	for pin := range res.Protected.ProtectedSinks() {
		sinks = append(sinks, pin)
	}
	naive, err := correction.BuildNaiveLifted(nl, sinks, lib,
		correction.Options{LiftLayer: 6, UtilPercent: 70, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	high := func(d *layout.Design) int64 {
		s := d.Router.ComputeStats()
		return s.Vias[5] + s.Vias[6] + s.Vias[7]
	}
	orig := high(res.Baseline)
	lift := high(naive.Design)
	prop := high(res.Protected.Design)
	if !(prop > orig && lift > orig) {
		t.Fatalf("high-layer vias: orig=%d lifted=%d proposed=%d (both defenses must add vias)", orig, lift, prop)
	}
	t.Logf("V56+V67+V78: original=%d lifted=%d proposed=%d", orig, lift, prop)
}

// TestForEachPanicReachesTheCache checks that a panic on a forEach worker
// goroutine is raised again on the caller's goroutine, where the result
// cache's recover turns it into an error naming the key instead of
// crashing the process, and that the key then recomputes.
func TestForEachPanicReachesTheCache(t *testing.T) {
	c := cache.New(0, nil)
	_, _, err := c.Do(context.Background(), "job", nil, func() (any, error) {
		forEach(8, 4, func(i int) {
			if i == 2 {
				panic("usage overflow")
			}
		})
		return "unreachable", nil
	})
	if err == nil || !strings.Contains(err.Error(), `"job"`) || !strings.Contains(err.Error(), "usage overflow") {
		t.Fatalf("error = %v, want the worker's panic naming the key", err)
	}
	v, hit, err := c.Do(context.Background(), "job", nil, func() (any, error) { return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("after the panic Do = (%v, %v, %v), want a fresh (ok, false, nil)", v, hit, err)
	}
}
