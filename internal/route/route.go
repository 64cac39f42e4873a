// Package route is the global-routing substrate standing in for Cadence
// Innovus' router. It routes nets over a 3-D grid of gcells with ten metal
// layers (M1..M10), alternating preferred directions, via costs, soft
// congestion-aware capacities, and — crucial for the paper's flow —
// per-net minimum-layer constraints that implement wire lifting: a lifted
// net may only climb vertically below its minimum layer, forcing its trunk
// wiring into the BEOL.
//
// The router reports exactly the quantities the paper's evaluation needs:
// per-layer wirelength (Fig. 5), per-boundary via counts V12..V910
// (Tables 2 and 6), and the routed topology from which the layout package
// derives FEOL fragments, vpins, and dangling-wire directions.
//
// Routing is incremental (RouteNet/RipUp, the ECO mode the BEOL
// restoration uses) or batched (RouteJobs): a batch is partitioned into
// deterministic waves of spatially disjoint nets that route concurrently
// on worker-local scratch and commit in serial order, producing
// byte-identical results at every parallelism level — see batch.go.
package route

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"splitmfg/internal/geom"
	"splitmfg/internal/heapx"
)

// DefaultGCellNM is the default gcell pitch (two row heights).
const DefaultGCellNM = 2800

// Node is a grid vertex: gcell coordinates plus layer (1-based).
type Node struct {
	X, Y, Z int
}

// Edge is one routed grid edge between two adjacent nodes (a wire segment
// when A.Z == B.Z, a via otherwise).
type Edge struct {
	A, B Node
}

// IsVia reports whether the edge crosses layers.
func (e Edge) IsVia() bool { return e.A.Z != e.B.Z }

// Pin is a routing terminal: a die location plus the metal layer the pin
// shape lives on (1 for standard cells, 6/8 for correction cells).
type Pin struct {
	Pt    geom.Point
	Layer int
}

// Grid describes the routing fabric.
type Grid struct {
	W, H   int // gcells in x and y
	Layers int // topmost metal layer (M1..Layers)
	GCell  int // gcell pitch in nm
	Die    geom.Rect
}

// NewGrid builds a grid covering the die with the given pitch and layers.
func NewGrid(die geom.Rect, gcell, layers int) Grid {
	if gcell <= 0 {
		gcell = DefaultGCellNM
	}
	w := (die.W() + gcell - 1) / gcell
	h := (die.H() + gcell - 1) / gcell
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	return Grid{W: w, H: h, Layers: layers, GCell: gcell, Die: die}
}

// NodeOf maps a die point and layer to its grid node.
func (g Grid) NodeOf(p geom.Point, layer int) Node {
	return Node{
		X: geom.Clamp((p.X-g.Die.Lo.X)/g.GCell, 0, g.W-1),
		Y: geom.Clamp((p.Y-g.Die.Lo.Y)/g.GCell, 0, g.H-1),
		Z: geom.Clamp(layer, 1, g.Layers),
	}
}

// CenterOf maps a grid node back to the die coordinates of its center.
func (g Grid) CenterOf(n Node) geom.Point {
	return geom.Point{
		X: g.Die.Lo.X + n.X*g.GCell + g.GCell/2,
		Y: g.Die.Lo.Y + n.Y*g.GCell + g.GCell/2,
	}
}

// Horizontal reports whether layer z routes horizontally (odd layers) or
// vertically (even layers).
func Horizontal(z int) bool { return z%2 == 1 }

// Options tunes the router.
type Options struct {
	ViaCost     int     // cost of one via step relative to gcell length; 0 = default
	Capacity    int     // tracks per gcell edge per layer; 0 = derived from the gcell pitch (see NewRouter)
	HistoryCost float64 // congestion penalty weight; 0 = default (2.0)
	MaxDetour   int     // extra gcells allowed around the bbox; 0 = default (12)

	// Strategy selects flat or hierarchical batched routing (see
	// strategy.go); the zero value is StrategyAuto, which resolves by die
	// area. Incremental RouteNet calls (the ECO path) always route flat —
	// they re-route single nets whose neighborhoods already exist.
	Strategy Strategy

	// Parallelism is the worker count for batched routing (RouteJobs):
	// 0 uses GOMAXPROCS, 1 forces serial execution. Results are
	// byte-identical at every level. Incremental RouteNet calls are always
	// serial regardless of this setting.
	Parallelism int

	// OnWave, when non-nil, is called after each committed multi-net wave
	// of a parallel batch with the 1-based wave number, the total wave
	// count, the number of nets the wave routed, and its wall-clock
	// duration. Waves that route a single net are silent (they are the
	// serial portions of the schedule), as are fully serial batches
	// (Parallelism 1, degenerate partitions, or the escape fallback).
	OnWave func(wave, waves, nets int, elapsed time.Duration)
}

func (o Options) withDefaults() Options {
	if o.ViaCost == 0 {
		o.ViaCost = 12
	}
	if o.HistoryCost == 0 {
		o.HistoryCost = 2.0
	}
	if o.MaxDetour == 0 {
		o.MaxDetour = 12
	}
	if o.Strategy == "" {
		o.Strategy = StrategyAuto
	}
	return o
}

// RoutedNet is the routed tree of one net.
type RoutedNet struct {
	ID       int
	Pins     []Pin
	Edges    []Edge
	MinLayer int // the lift constraint the net was routed with (1 = none)
	Failed   bool
}

// Wirelength returns the net's total routed wire length in nm (vias
// excluded) and its via count.
func (rn *RoutedNet) Wirelength(g Grid) (wlNM int64, vias int) {
	for _, e := range rn.Edges {
		if e.IsVia() {
			vias++
		} else {
			wlNM += int64(g.GCell)
		}
	}
	return wlNM, vias
}

// Router routes nets incrementally and supports rip-up/re-route (the ECO
// mode the paper's flow uses when restoring true connectivity in the BEOL).
type Router struct {
	Grid Grid
	Opt  Options

	// Usage grids are int16: full-scale superblue grids run to tens of
	// millions of nodes, and usage (nets crossing one gcell edge) stays
	// within a few multiples of Capacity (~15), so halving the element size
	// halves the router's largest resident arrays. addUsage panics before
	// an increment could wrap — silent saturation would corrupt the rip-up
	// accounting that negotiation depends on.
	usageH []int16 // horizontal segment usage, indexed by node index
	usageV []int16 // vertical segment usage
	nets   map[int]*RoutedNet

	// serial is the scratch worker incremental RouteNet calls route on;
	// batched routing spins up additional workers (see batch.go).
	serial *worker

	// planner is the hierarchical strategy's coarse pass, created lazily
	// by the first hier RouteJobs call (see coarse.go); hierStats
	// accumulates what it did. corridorHook, when non-nil, observes (and
	// may perturb) each batch's planned corridors before routing — a
	// deterministic fault-injection point for tests: with soft capacities
	// the tile grid has no organic way to produce an unroutable corridor,
	// but the fallback must still be exercised.
	planner      *coarsePlanner
	hierStats    HierStats
	corridorHook func([]corridor)

	// netCorrs remembers each net's last planned corridor (tiles copied
	// out of the planner's per-batch arena, which the next plan reuses),
	// so congestion negotiation stays corridor-confined under the
	// hierarchical strategy instead of re-opening die-sized flat searches.
	// A successful flat re-route (RouteNet — the ECO path) or a rip-up
	// invalidates the entry.
	netCorrs map[int]storedCorridor
}

// storedCorridor is the persistent per-net copy of a planned corridor.
type storedCorridor struct {
	tiles []int32
	reg   region
}

// NewRouter creates a router over the grid. When Options.Capacity is zero
// it defaults to the physical track count of the gcell pitch (one routing
// track per ~190nm at 45nm-class metal pitches), so fine grids are
// realistically tight and congestion pushes wiring upward exactly as in
// commercial flows.
func NewRouter(grid Grid, opt Options) *Router {
	if opt.Capacity == 0 {
		opt.Capacity = (grid.GCell + 95) / 190 // round(gcell / 190nm pitch)
		if opt.Capacity < 2 {
			opt.Capacity = 2
		}
	}
	n := grid.W * grid.H * (grid.Layers + 1)
	r := &Router{
		Grid:   grid,
		Opt:    opt.withDefaults(),
		usageH: make([]int16, n),
		usageV: make([]int16, n),
		nets:   make(map[int]*RoutedNet),
	}
	r.serial = newWorker(r)
	return r
}

func (r *Router) idx(n Node) int32 {
	return int32((n.Z*r.Grid.H+n.Y)*r.Grid.W + n.X)
}

func (r *Router) node(i int32) Node {
	w, h := r.Grid.W, r.Grid.H
	x := int(i) % w
	y := int(i) / w % h
	z := int(i) / (w * h)
	return Node{X: x, Y: y, Z: z}
}

// Nets returns a snapshot of the currently routed nets keyed by ID. The
// map is a copy, so callers can iterate, add, or delete entries without
// corrupting router state; the *RoutedNet values are shared read-only
// views — mutate a net only through RouteNet/RipUp.
func (r *Router) Nets() map[int]*RoutedNet {
	m := make(map[int]*RoutedNet, len(r.nets))
	for id, rn := range r.nets {
		m[id] = rn
	}
	return m
}

// NumNets returns the number of currently routed nets (cheaper than
// snapshotting via Nets when only the count is needed).
func (r *Router) NumNets() int { return len(r.nets) }

// SortedNetIDs returns the routed net IDs in ascending order — the
// deterministic iteration order consumers need, without the map snapshot
// Nets makes.
func (r *Router) SortedNetIDs() []int {
	ids := make([]int, 0, len(r.nets))
	for id := range r.nets {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Net returns one routed net, or nil. The returned net is a shared
// read-only view: mutate it only through RouteNet/RipUp.
func (r *Router) Net(id int) *RoutedNet { return r.nets[id] }

// RouteNet routes (or re-routes) net id connecting all pins, honoring the
// minimum-layer lift constraint (minLayer <= 1 means unconstrained). Wire
// segments are only allowed on layers >= max(2, minLayer); below that,
// only vertical via climbs are permitted, so every pin connects upward to
// the trunk. Routing is A*-based per sink with the growing tree as the
// source frontier.
//
// The route is computed first and committed only on success: a failed
// re-route leaves the net's existing route fully intact, and a failed
// fresh route records a Failed marker with no edges — partial trees never
// occupy capacity or leak into ComputeStats/Validate.
//
//smlint:hot
func (r *Router) RouteNet(id int, pins []Pin, minLayer int) error {
	if len(pins) == 0 {
		return fmt.Errorf("route: net %d has no pins", id)
	}
	if minLayer > r.Grid.Layers {
		return fmt.Errorf("route: net %d lift layer M%d above top layer M%d", id, minLayer, r.Grid.Layers)
	}
	old := r.nets[id]
	rn, err := r.serial.routeNet(id, pins, minLayer, old, nil)
	if err != nil {
		if old == nil {
			r.nets[id] = rn // failed marker: no edges, no usage
		}
		return err
	}
	r.commit(rn, old)
	// A flat route supersedes any remembered corridor: the pins may have
	// changed (ECO), and negotiation must not squeeze the new topology
	// back into the old net's corridor.
	delete(r.netCorrs, id)
	return nil
}

// commit installs a freshly routed net: the old route (if any) is ripped
// up and the new edges take its place in the usage maps.
func (r *Router) commit(rn *RoutedNet, old *RoutedNet) {
	if old != nil {
		r.ripUp(old)
	}
	r.nets[rn.ID] = rn
	for _, e := range rn.Edges {
		r.addUsage(e, 1, rn.ID)
	}
}

// RipUp removes a routed net, releasing its routing resources.
func (r *Router) RipUp(id int) {
	if rn := r.nets[id]; rn != nil {
		r.ripUp(rn)
		delete(r.nets, id)
		delete(r.netCorrs, id)
	}
}

func (r *Router) ripUp(rn *RoutedNet) {
	for _, e := range rn.Edges {
		r.addUsage(e, -1, rn.ID)
	}
	rn.Edges = nil
}

// addUsage adjusts the usage grid for one edge, panicking with the full
// edge identity before an increment could wrap the int16 cell: usage
// beyond int16 range means thousands of nets stacked on one gcell edge —
// a corrupted accounting state, not a legitimate design — and wrapping
// silently would break rip-up bookkeeping and congestion negotiation in
// undebuggable ways. The panic names the layer, gcell, direction, and
// the net being committed or ripped up, so a full-scale failure is
// diagnosable without a debugger.
func (r *Router) addUsage(e Edge, d int16, netID int) {
	if e.IsVia() {
		return
	}
	lo := e.A
	if e.B.X < lo.X || e.B.Y < lo.Y {
		lo = e.B
	}
	i := r.idx(lo)
	u := r.usageV
	dir := "vertical"
	if e.A.Y == e.B.Y && e.A.X != e.B.X {
		u = r.usageH
		dir = "horizontal"
	}
	s := int32(u[i]) + int32(d)
	if s > math.MaxInt16 || s < math.MinInt16 {
		panic(fmt.Sprintf("route: net %d: %s edge usage %d at M%d gcell (%d,%d) overflows int16",
			netID, dir, s, lo.Z, lo.X, lo.Y))
	}
	u[i] = int16(s)
}

const viaBase = 10 // via cost = viaBase * Opt.ViaCost / 4

func (r *Router) viaCost() int64 { return int64(viaBase * r.Opt.ViaCost / 4) }

// pqItem is a priority-queue entry for A*: Pri is the f-score, Value the
// grid-node index. heapx gives a typed slice heap — no interface{} boxing
// or indirect dispatch on the router's hottest path.
type pqItem = heapx.Item[int32]

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Stats aggregates routing results across all nets.
type Stats struct {
	WirelengthByLayer []int64 // index 1..Layers, nm
	Vias              []int64 // index z: vias between Mz and Mz+1 (1..Layers-1)
	TotalWirelength   int64
	TotalVias         int64
	OverflowEdges     int // edges above capacity
}

// ComputeStats tallies per-layer wirelength, via counts per boundary, and
// capacity overflows.
func (r *Router) ComputeStats() Stats {
	g := r.Grid
	s := Stats{
		WirelengthByLayer: make([]int64, g.Layers+1),
		Vias:              make([]int64, g.Layers+1),
	}
	for _, rn := range r.nets {
		for _, e := range rn.Edges {
			if e.IsVia() {
				lo := e.A.Z
				if e.B.Z < lo {
					lo = e.B.Z
				}
				s.Vias[lo]++
				s.TotalVias++
			} else {
				s.WirelengthByLayer[e.A.Z] += int64(g.GCell)
				s.TotalWirelength += int64(g.GCell)
			}
		}
	}
	for i := range r.usageH {
		if int(r.usageH[i]) > r.Opt.Capacity {
			s.OverflowEdges++
		}
		if int(r.usageV[i]) > r.Opt.Capacity {
			s.OverflowEdges++
		}
	}
	return s
}

// MaxUsage returns the maximum edge usage, for congestion reporting.
func (r *Router) MaxUsage() int {
	m := int16(0)
	for _, u := range r.usageH {
		if u > m {
			m = u
		}
	}
	for _, u := range r.usageV {
		if u > m {
			m = u
		}
	}
	return int(m)
}

// Validate checks every routed net's tree: edges adjacent, connected, and
// spanning all pins; wire segments respect preferred directions and the
// net's lift constraint.
func (r *Router) Validate() error {
	for id, rn := range r.nets {
		if rn.Failed {
			return fmt.Errorf("route: net %d marked failed", id)
		}
		if len(rn.Pins) <= 1 {
			continue
		}
		adj := map[Node][]Node{}
		for _, e := range rn.Edges {
			if !adjacent(e.A, e.B) {
				return fmt.Errorf("route: net %d has non-adjacent edge %v", id, e)
			}
			if !e.IsVia() {
				if Horizontal(e.A.Z) && e.A.Y != e.B.Y {
					return fmt.Errorf("route: net %d routes vertically on horizontal layer M%d", id, e.A.Z)
				}
				if !Horizontal(e.A.Z) && e.A.X != e.B.X {
					return fmt.Errorf("route: net %d routes horizontally on vertical layer M%d", id, e.A.Z)
				}
				wireMin := 2
				if rn.MinLayer > wireMin {
					wireMin = rn.MinLayer
				}
				if e.A.Z < wireMin {
					return fmt.Errorf("route: net %d has wire on M%d below lift layer M%d", id, e.A.Z, wireMin)
				}
			}
			adj[e.A] = append(adj[e.A], e.B)
			adj[e.B] = append(adj[e.B], e.A)
		}
		// Connectivity: BFS from pin 0's node must reach all pin nodes.
		start := r.Grid.NodeOf(rn.Pins[0].Pt, rn.Pins[0].Layer)
		seen := map[Node]bool{start: true}
		queue := []Node{start}
		//smlint:bounded BFS with a seen set: each tree node enqueues at most once
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, m := range adj[n] {
				if !seen[m] {
					seen[m] = true
					queue = append(queue, m)
				}
			}
		}
		for i, p := range rn.Pins {
			if !seen[r.Grid.NodeOf(p.Pt, p.Layer)] {
				return fmt.Errorf("route: net %d pin %d not connected", id, i)
			}
		}
	}
	return nil
}

func adjacent(a, b Node) bool {
	dx := absInt(a.X - b.X)
	dy := absInt(a.Y - b.Y)
	dz := absInt(a.Z - b.Z)
	return dx+dy+dz == 1
}

// NegotiateReroute performs congestion negotiation: nets crossing
// over-capacity edges are ripped up and re-routed with an escalated
// history cost, for up to the given number of iterations or until no
// overflow remains. This is the rip-up-and-reroute loop every production
// global router runs to reach a DRC-clean (capacity-respecting) result.
//
// The escalation is local to the negotiation: Opt.HistoryCost is restored
// on return, so later RouteNet calls on the same router see the
// configured weight, not a compounded one. A net whose re-route fails
// keeps its previous (congested but valid) route.
//
// Under the hierarchical strategy, nets that still have a remembered
// corridor from the coarse pass re-route corridor-confined (falling back
// to the flat search if the corridor is exhausted, like batched
// refinement) — negotiation is where flat routing spends most of its
// time on large dies, and it would otherwise reopen exactly the
// die-sized searches the corridors were built to avoid. The loop is
// serial and the corridors are a pure function of the batch history, so
// the determinism contract is untouched.
func (r *Router) NegotiateReroute(iters int) {
	orig := r.Opt.HistoryCost
	defer func() { r.Opt.HistoryCost = orig }()
	hier := r.ResolvedStrategy() == StrategyHier && r.planner != nil
	for it := 0; it < iters; it++ {
		over := map[int]bool{}
		for id, rn := range r.nets {
			for _, e := range rn.Edges {
				if e.IsVia() {
					continue
				}
				lo := e.A
				if e.B.X < lo.X || e.B.Y < lo.Y {
					lo = e.B
				}
				var u int16
				if e.A.Y == e.B.Y && e.A.X != e.B.X {
					u = r.usageH[r.idx(lo)]
				} else {
					u = r.usageV[r.idx(lo)]
				}
				if int(u) > r.Opt.Capacity {
					over[id] = true
					break
				}
			}
		}
		if len(over) == 0 {
			return
		}
		ids := make([]int, 0, len(over))
		for id := range over {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		r.Opt.HistoryCost *= 1.8
		for _, id := range ids {
			rn := r.nets[id]
			var err error
			if c, ok := r.netCorrs[id]; hier && ok {
				r.hierStats.NegoCorridor++
				err = r.routeNetCorridor(id, rn.Pins, rn.MinLayer, c.tiles, c.reg)
			} else {
				err = r.RouteNet(id, rn.Pins, rn.MinLayer)
			}
			if err != nil {
				// The re-route left the old route fully intact; keep it — a
				// congested route beats a destroyed one.
				continue
			}
		}
	}
}
