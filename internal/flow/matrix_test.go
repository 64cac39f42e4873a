package flow

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/baselines"
)

func matrixFixture(t *testing.T) (*cell.Library, MatrixOptions) {
	t.Helper()
	return cell.NewNangate45Like(), MatrixOptions{
		Defenses:     []string{"randomize-correction", "naive-lifted", "pin-swapping"},
		Attackers:    []string{"proximity", "random"},
		SplitLayers:  []int{3, 4},
		Seed:         7,
		PatternWords: 16,
	}
}

func marshalMatrix(t *testing.T, m MatrixResult, opt MatrixOptions) []byte {
	t.Helper()
	b, err := json.MarshalIndent(m.Report("c432", opt), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEvaluateMatrixSerialParallelIdentical(t *testing.T) {
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib, opt := matrixFixture(t)

	opt.Parallelism = 1
	serial, err := EvaluateMatrix(context.Background(), nl, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 4
	parallel, err := EvaluateMatrix(context.Background(), nl, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	sb := marshalMatrix(t, serial, opt)
	pb := marshalMatrix(t, parallel, opt)
	if !bytes.Equal(sb, pb) {
		t.Fatalf("serial and parallel matrix reports differ:\n%s\n----\n%s", sb, pb)
	}

	// Shape: one row per requested defense, one cell per requested
	// attacker, in request order.
	if len(serial.Rows) != len(opt.Defenses) {
		t.Fatalf("got %d rows, want %d", len(serial.Rows), len(opt.Defenses))
	}
	for i, row := range serial.Rows {
		if row.Defense != opt.Defenses[i] {
			t.Fatalf("row %d is %q, want %q", i, row.Defense, opt.Defenses[i])
		}
		cells := row.Security.PerAttacker
		if len(cells) != len(opt.Attackers) {
			t.Fatalf("row %q has %d cells, want %d", row.Defense, len(cells), len(opt.Attackers))
		}
		for j, c := range cells {
			if c.Attacker != opt.Attackers[j] {
				t.Fatalf("row %q cell %d is %q, want %q", row.Defense, j, c.Attacker, opt.Attackers[j])
			}
			if !c.Scored {
				t.Fatalf("row %q cell %q unscored", row.Defense, c.Attacker)
			}
		}
	}
	// The proposed scheme must beat the unprotected-ish pin-swapping row
	// against the proximity attack (the paper's whole argument); with a
	// tiny pattern budget we only require it not be *worse*.
	rc := serial.Rows[0].Security.PerAttacker[0].CCR
	ps := serial.Rows[2].Security.PerAttacker[0].CCR
	if rc > ps+0.15 {
		t.Errorf("randomize-correction CCR %.2f not below pin-swapping CCR %.2f", rc, ps)
	}
}

func TestEvaluateMatrixDuplicateDefenseMemo(t *testing.T) {
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib, opt := matrixFixture(t)
	opt.Defenses = []string{"pin-swapping", "pin-swapping"}
	opt.Attackers = []string{"random"}
	res, err := EvaluateMatrix(context.Background(), nl, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	a, _ := json.Marshal(res.Report("c432", opt).Rows[0])
	b, _ := json.Marshal(res.Report("c432", opt).Rows[1])
	if !bytes.Equal(a, b) {
		t.Fatalf("duplicate defense rows differ:\n%s\n%s", a, b)
	}
}

func TestEvaluateMatrixUnknownNames(t *testing.T) {
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib, opt := matrixFixture(t)
	opt.Defenses = []string{"no-such-defense"}
	if _, err := EvaluateMatrix(context.Background(), nl, lib, opt); err == nil ||
		!strings.Contains(err.Error(), "no-such-defense") {
		t.Fatalf("unknown defense not rejected: %v", err)
	}
	_, opt = matrixFixture(t)
	opt.Attackers = []string{"no-such-attacker"}
	if _, err := EvaluateMatrix(context.Background(), nl, lib, opt); err == nil ||
		!strings.Contains(err.Error(), "no-such-attacker") {
		t.Fatalf("unknown attacker not rejected: %v", err)
	}
}

// TestEvaluateMatrixProgressSerialized appends to a plain slice from the
// progress hook — the documented contract says callbacks are serialized,
// so this must be safe even with concurrent defense rows and layer
// attacks (the race detector enforces it in the CI race job).
func TestEvaluateMatrixProgressSerialized(t *testing.T) {
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib, opt := matrixFixture(t)
	opt.Parallelism = 4
	var events []Event
	opt.Progress = func(ev Event) { events = append(events, ev) }
	if _, err := EvaluateMatrix(context.Background(), nl, lib, opt); err != nil {
		t.Fatal(err)
	}
	defenses := 0
	for _, ev := range events {
		if ev.Stage == StageDefense {
			defenses++
		}
	}
	if defenses != len(opt.Defenses) {
		t.Fatalf("got %d StageDefense events, want %d", defenses, len(opt.Defenses))
	}
}

// TestEvaluateMatrixProgressContract pins what a matrix reports through
// its progress hook when a defense is requested twice: one StageDefense
// per distinct defense, one StageAttack per (distinct defense, split
// layer), and none of the suite-level stages.
func TestEvaluateMatrixProgressContract(t *testing.T) {
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib, opt := matrixFixture(t)
	opt.Defenses = []string{"pin-swapping", "naive-lifted", "pin-swapping"}
	opt.Attackers = []string{"random"}
	opt.Parallelism = 4
	counts := map[Stage]int{}
	defenses := map[string]int{}
	opt.Progress = func(ev Event) {
		counts[ev.Stage]++
		if ev.Stage == StageDefense {
			defenses[ev.Detail]++
		}
	}
	if _, err := EvaluateMatrix(context.Background(), nl, lib, opt); err != nil {
		t.Fatal(err)
	}
	const distinct = 2
	if len(defenses) != distinct || defenses["pin-swapping"] != 1 || defenses["naive-lifted"] != 1 {
		t.Fatalf("StageDefense events per defense = %v, want one per distinct name", defenses)
	}
	if want := distinct * len(opt.SplitLayers); counts[StageAttack] != want {
		t.Fatalf("got %d StageAttack events, want %d", counts[StageAttack], want)
	}
	if counts[StageSuiteBaseline] != 0 || counts[StageSuiteCell] != 0 {
		t.Fatalf("matrix emitted suite-level events: %v", counts)
	}
}

func TestEvaluateMatrixCancellation(t *testing.T) {
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib, opt := matrixFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EvaluateMatrix(ctx, nl, lib, opt); err == nil {
		t.Fatal("cancelled matrix evaluation returned no error")
	}
}

func TestSenguptaReducesAttackCCR(t *testing.T) {
	// The defense's whole point: after G-Color relocation the proximity
	// attack must do worse than on a near-untouched layout. (Relocated
	// from the baselines package when the defense registry made that
	// import direction a cycle.)
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	orig, err := baselines.PlacementPerturbation(nl, lib, baselines.Options{Seed: 3, Fraction: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := baselines.Sengupta(nl, lib, baselines.GColor, baselines.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	so, err := EvaluateSecurity(context.Background(), orig, nl, EvalOptions{SplitLayers: []int{3, 4}, Seed: 3, PatternWords: 16})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := EvaluateSecurity(context.Background(), prot, nl, EvalOptions{SplitLayers: []int{3, 4}, Seed: 3, PatternWords: 16})
	if err != nil {
		t.Fatal(err)
	}
	if so.Protected > 0 && sp.Protected > 0 && sp.CCR > so.CCR+0.1 {
		t.Fatalf("G-Color increased CCR: %.2f -> %.2f", so.CCR, sp.CCR)
	}
}
