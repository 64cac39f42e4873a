package netlist_test

import (
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/netlist"
)

// checkConeMatchesPathExists asserts, for every (from, to) gate pair, that
// FanoutCone(from).Has(to) == PathExists(from, to), with the reference
// answers taken on an independent clone. It then asks nl itself the same
// PathExists questions right after each cone walk, since the two share
// one epoch scratch.
func checkConeMatchesPathExists(t *testing.T, nl *netlist.Netlist) {
	t.Helper()
	ref := nl.Clone()
	n := nl.NumGates()
	has := make([]bool, n)
	for from := 0; from < n; from++ {
		cone := nl.FanoutCone(from)
		for to := range has {
			has[to] = cone.Has(to)
		}
		for to := range has {
			want := ref.PathExists(from, to)
			if has[to] != want {
				t.Fatalf("%s: FanoutCone(%d).Has(%d) = %v, PathExists = %v", nl.Name, from, to, has[to], want)
			}
			if got := nl.PathExists(from, to); got != want {
				t.Fatalf("%s: PathExists(%d, %d) after a cone walk = %v, want %v", nl.Name, from, to, got, want)
			}
		}
	}
}

func TestFanoutConeMatchesPathExistsC880(t *testing.T) {
	nl, err := bench.ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	checkConeMatchesPathExists(t, nl)
}

// TestFanoutConeStopsAtSequential covers the sequential-stop rule: a walk
// expands its own start gate even when that is a DFF, but stops at every
// DFF it reaches after that.
func TestFanoutConeStopsAtSequential(t *testing.T) {
	nl := netlist.New("seq")
	a := nl.AddPI("a")
	g1 := nl.AddGate("g1", netlist.And, a, a)
	ff := nl.AddGate("ff", netlist.DFF, nl.Gates[g1].Out)
	g2 := nl.AddGate("g2", netlist.And, nl.Gates[ff].Out, a)
	g3 := nl.AddGate("g3", netlist.Or, nl.Gates[g2].Out, nl.Gates[g1].Out)
	// Close a sequential loop: g1 reads the flip-flop's output.
	if err := nl.RewirePin(g1, 1, nl.Gates[ff].Out); err != nil {
		t.Fatal(err)
	}
	nl.AddPO("o", nl.Gates[g3].Out)

	want := map[[2]int]bool{
		{g1, ff}: true, {g1, g3}: true, {g1, g2}: false, // ff is reached but not expanded
		{ff, g2}: true, {ff, g3}: true, {ff, g1}: true, // the start DFF is expanded
		{g2, g3}: true, {g2, g1}: false, {g3, g1}: false,
	}
	for pair, w := range want {
		if got := nl.FanoutCone(pair[0]).Has(pair[1]); got != w {
			t.Errorf("FanoutCone(%s).Has(%s) = %v, want %v", nl.Gates[pair[0]].Name, nl.Gates[pair[1]].Name, got, w)
		}
	}
	checkConeMatchesPathExists(t, nl)
}

func TestFanoutConeStaleAfterPathExistsPanics(t *testing.T) {
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	cone := nl.FanoutCone(0)
	nl.PathExists(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Has on a cone whose scratch a later walk reused did not panic")
		}
	}()
	cone.Has(0)
}
