package proximity

import (
	"context"
	"fmt"

	"splitmfg/internal/heapx"
)

// MaxEdgeCapacity is the largest capacity a single MCMF edge may carry.
// The bottleneck search in run starts its scan at this value, so a larger
// capacity could never be pushed anyway — and int32(x) for x beyond
// MaxInt32 would wrap silently. Graph construction validates against it.
const MaxEdgeCapacity = 1 << 30

// CapacityError reports an edge capacity outside [0, MaxEdgeCapacity]
// at graph-build time. Full-size superblue fan-out counts can approach
// the int32 range; failing typed and early beats wrapping silently into
// a negative capacity the solver would treat as a saturated edge.
type CapacityError struct {
	Capacity int
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("proximity: mcmf edge capacity %d outside [0, %d]", e.Capacity, MaxEdgeCapacity)
}

// mcmf is a small min-cost max-flow solver (successive shortest paths with
// Johnson potentials) used to solve the attacker's joint assignment of sink
// fragments to driver fragments — the "network flow" in the network-flow
// attack.
//
// The graph is built as a flat edge list: addEdge appends one forward edge
// and returns its index. run then lays the list out once as
// compressed-sparse-row arcs and drops it, so a solve holds one copy of the
// graph. Node u's arcs — its forward edges and the residual twins of the
// edges into it — sit contiguously in arcs[start[u]:start[u+1]] as packed
// {to, cap, cost} records, twin[a] is the index of arc a's reverse arc, and
// arcOf maps a forward edge index to its arc.
//
// Arc order is a contract: within each node the arcs sit in reverse
// insertion order, the order a head/next linked-list adjacency visits them.
// Dijkstra relaxes and pushes in arc order, and heapx breaks equal-distance
// ties by push order, so any other order can pick a different equal-cost
// augmenting path and with it a different assignment. mcmf_test.go keeps
// the linked-list solver as a reference and pins the two against each
// other.
type mcmf struct {
	n     int
	edges []mcmfEdge // forward edges in insertion order, until run lays them out

	start []int32 // len n+1; arcs of node u are arcs[start[u]:start[u+1]]
	arcs  []mcmfArc
	twin  []int32 // reverse arc of each arc
	arcOf []int32 // forward edge index -> its arc
}

// mcmfEdge is one forward edge as addEdge recorded it.
type mcmfEdge struct {
	u, v int32
	cap  int32
	cost int64
}

// mcmfArc is one residual arc: head node, remaining capacity, cost.
type mcmfArc struct {
	to   int32
	cap  int32
	cost int64
}

func newMCMF(n int) *mcmf {
	return &mcmf{n: n}
}

// reserve pre-sizes the flat edge list for `edges` forward edges, so graph
// build appends never reallocate. (run sizes the arcs itself: two per
// edge, the forward arc and its residual twin.)
func (g *mcmf) reserve(edges int) {
	g.edges = make([]mcmfEdge, 0, edges)
}

// addEdge appends a directed edge u->v, returning its index. Callers with
// capacities of unvalidated magnitude go through addEdgeInt instead. Edges
// added after run are not part of the solve.
//
//smlint:hot
func (g *mcmf) addEdge(u, v int, capacity int32, cost int64) int {
	g.edges = append(g.edges, mcmfEdge{u: int32(u), v: int32(v), cap: capacity, cost: cost})
	return len(g.edges) - 1
}

// addEdgeInt validates an int capacity and inserts the edge, returning a
// *CapacityError for capacities int32 truncation would corrupt (negative
// after wrap) or the bottleneck scan would never honor (> MaxEdgeCapacity).
func (g *mcmf) addEdgeInt(u, v int, capacity int, cost int64) (int, error) {
	if capacity < 0 || capacity > MaxEdgeCapacity {
		return -1, &CapacityError{Capacity: capacity}
	}
	return g.addEdge(u, v, int32(capacity), cost), nil
}

// layout turns the edge list into CSR arcs and drops the list. Each node's
// slots are filled from the end in insertion order (forward arc before its
// twin), which leaves them in reverse insertion order — see the type doc.
func (g *mcmf) layout() {
	// start[u] first counts u's arcs, then becomes the end of u's segment,
	// and the fill below decrements it down to the segment's start.
	start := make([]int32, g.n+1)
	for _, e := range g.edges {
		start[e.u]++
		start[e.v]++
	}
	for u := 1; u <= g.n; u++ {
		start[u] += start[u-1]
	}
	arcs := make([]mcmfArc, 2*len(g.edges))
	twin := make([]int32, len(arcs))
	arcOf := make([]int32, len(g.edges))
	for id, e := range g.edges {
		start[e.u]--
		f := start[e.u]
		start[e.v]--
		r := start[e.v]
		arcs[f] = mcmfArc{to: e.v, cap: e.cap, cost: e.cost}
		arcs[r] = mcmfArc{to: e.u, cost: -e.cost}
		twin[f], twin[r] = r, f
		arcOf[id] = f
	}
	g.start, g.arcs, g.twin, g.arcOf = start, arcs, twin, arcOf
	g.edges = nil
}

// residual returns the capacity forward edge id has left after run.
func (g *mcmf) residual(id int) int32 {
	return g.arcs[g.arcOf[id]].cap
}

// mcmfItem is a Dijkstra priority-queue entry: Pri is the reduced-cost
// distance, Value the node. heapx gives a typed slice heap — no
// interface{} boxing inside the loop that dominates the flow solve.
type mcmfItem = heapx.Item[int]

// run pushes flow from s to t until exhaustion, returning total flow and
// cost. All edge costs must be non-negative. The first call lays the
// edge list out as arcs (see the type doc).
//
// The context is checked once per augmenting-path iteration (one Dijkstra
// sweep each), so a single large solve — a full-size superblue split can
// run thousands of iterations — stops promptly on cancellation instead of
// running to completion; the flow pushed so far and ctx.Err() are
// returned.
//
//smlint:hot
func (g *mcmf) run(ctx context.Context, s, t int) (flow int32, cost int64, err error) {
	if g.start == nil {
		g.layout()
	}
	const inf = int64(1) << 62
	start, arcs, twin := g.start, g.arcs, g.twin
	pot := make([]int64, g.n)
	dist := make([]int64, g.n)
	// prevArc needs no per-sweep reset: the path walks below read it only
	// on nodes the current sweep reached.
	prevArc := make([]int32, g.n)
	inTree := make([]bool, g.n)
	// One heap buffer for every augmenting iteration — a large solve runs
	// thousands of Dijkstra sweeps and regrowing the frontier each sweep
	// shows up in heap profiles.
	q := make([]mcmfItem, 0, g.n)
	for {
		if err := ctx.Err(); err != nil {
			return flow, cost, err
		}
		for i := range dist {
			dist[i] = inf
			inTree[i] = false
		}
		dist[s] = 0
		q = append(q[:0], mcmfItem{Pri: 0, Value: s})
		for len(q) > 0 {
			var it mcmfItem
			q, it = heapx.Pop(q)
			u := it.Value
			if inTree[u] {
				continue
			}
			inTree[u] = true
			du := dist[u] + pot[u]
			lo := start[u]
			for i, a := range arcs[lo:start[u+1]] {
				if a.cap <= 0 {
					continue
				}
				v := int(a.to)
				nd := du + a.cost - pot[v]
				if nd < dist[v] {
					dist[v] = nd
					prevArc[v] = lo + int32(i)
					q = heapx.Push(q, mcmfItem{Pri: nd, Value: v})
				}
			}
		}
		if dist[t] >= inf {
			return flow, cost, nil
		}
		for i := range pot {
			if dist[i] < inf {
				pot[i] += dist[i]
			}
		}
		// Bottleneck along the path.
		var push int32 = 1 << 30
		for v := t; v != s; {
			a := prevArc[v]
			if arcs[a].cap < push {
				push = arcs[a].cap
			}
			v = int(arcs[twin[a]].to)
		}
		for v := t; v != s; {
			a := prevArc[v]
			arcs[a].cap -= push
			arcs[twin[a]].cap += push
			cost += int64(push) * arcs[a].cost
			v = int(arcs[twin[a]].to)
		}
		flow += push
	}
}
