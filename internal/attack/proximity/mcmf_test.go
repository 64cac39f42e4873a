package proximity

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"splitmfg/internal/heapx"
)

// bigBipartite builds a dense synthetic assignment instance: `side` drivers
// and `side` sinks with every pairing available at a random cost, so the
// solve needs `side` augmenting-path iterations to saturate.
func bigBipartite(side int, seed int64) (g *mcmf, s, t int) {
	rng := rand.New(rand.NewSource(seed))
	s, t = 0, 1+2*side
	g = newMCMF(t + 1)
	g.reserve(side*side + 2*side)
	for d := 0; d < side; d++ {
		g.addEdge(s, 1+d, 1, 0)
		for k := 0; k < side; k++ {
			g.addEdge(1+d, 1+side+k, 1, int64(rng.Intn(1000)+1))
		}
	}
	for k := 0; k < side; k++ {
		g.addEdge(1+side+k, t, 1, 0)
	}
	return g, s, t
}

// errAfterCtx is a context whose Err flips to Canceled after a fixed
// number of polls — a deterministic stand-in for "the caller cancelled
// while the solver was deep inside one large solve".
type errAfterCtx struct {
	context.Context
	polls, limit int
}

func (c *errAfterCtx) Err() error {
	c.polls++
	if c.polls > c.limit {
		return context.Canceled
	}
	return nil
}

func TestMCMFCancelledMidSolve(t *testing.T) {
	// 300 augmenting paths are needed; cancellation is observed on poll 4.
	// Before ctx was threaded into run, the solver only ever noticed
	// cancellation after full exhaustion.
	g, s, tt := bigBipartite(300, 1)
	ctx := &errAfterCtx{Context: context.Background(), limit: 3}
	flow, _, err := g.run(ctx, s, tt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run err = %v, want context.Canceled", err)
	}
	if flow != 3 {
		t.Fatalf("run pushed %d paths before observing cancellation, want 3", flow)
	}
}

func TestMCMFCancelledUpFrontReturnsImmediately(t *testing.T) {
	g, s, tt := bigBipartite(400, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	flow, _, err := g.run(ctx, s, tt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run err = %v, want context.Canceled", err)
	}
	if flow != 0 {
		t.Fatalf("pre-cancelled run pushed flow %d, want 0", flow)
	}
	// Generous bound: a full 400-path dense solve takes orders of
	// magnitude longer than one ctx check.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pre-cancelled run took %v", elapsed)
	}
}

func TestMCMFRunMatchesUncancelled(t *testing.T) {
	// Threading the context must not change the solve itself.
	ga, s, tt := bigBipartite(60, 3)
	gb, _, _ := bigBipartite(60, 3)
	fa, ca, err := ga.run(context.Background(), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	fb, cb, err := gb.run(&errAfterCtx{Context: context.Background(), limit: 1 << 30}, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb || ca != cb {
		t.Fatalf("ctx-aware run diverged: flow %d/%d cost %d/%d", fa, fb, ca, cb)
	}
	if fa != 60 {
		t.Fatalf("dense bipartite instance should saturate: flow %d, want 60", fa)
	}
}

func TestAddEdgeIntRejectsOverflow(t *testing.T) {
	g := newMCMF(2)
	var capErr *CapacityError
	if _, err := g.addEdgeInt(0, 1, MaxEdgeCapacity+1, 0); !errors.As(err, &capErr) {
		t.Fatalf("capacity %d: err = %v, want *CapacityError", MaxEdgeCapacity+1, err)
	}
	if capErr.Capacity != MaxEdgeCapacity+1 {
		t.Fatalf("CapacityError.Capacity = %d, want %d", capErr.Capacity, MaxEdgeCapacity+1)
	}
	if _, err := g.addEdgeInt(0, 1, -1, 0); !errors.As(err, &capErr) {
		t.Fatalf("negative capacity: err = %v, want *CapacityError", err)
	}
	// int32 wrap-around magnitude — the silent-corruption case the guard
	// exists for: int32(1<<31) is negative.
	if _, err := g.addEdgeInt(0, 1, 1<<31, 0); !errors.As(err, &capErr) {
		t.Fatalf("capacity 1<<31: err = %v, want *CapacityError", err)
	}
}

func TestAddEdgeIntAcceptsFullRange(t *testing.T) {
	g := newMCMF(2)
	for _, c := range []int{0, 1, MaxEdgeCapacity} {
		id, err := g.addEdgeInt(0, 1, c, 7)
		if err != nil {
			t.Fatalf("capacity %d rejected: %v", c, err)
		}
		if got := g.edges[id].cap; got != int32(c) {
			t.Fatalf("capacity %d stored as %d", c, got)
		}
	}
}

func TestAttackCancellationSurfacesError(t *testing.T) {
	d, sv := buildSplit(t, "c880", 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Attack(ctx, d, sv, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Attack err = %v, want context.Canceled", err)
	}
}

// listMCMF is the solver's former linked-list layout (head/next over edge
// ids, twin = id^1), kept as the reference the CSR solver must match arc
// for arc: same relaxations, same pushes, same heapx tie order.
type listMCMF struct {
	n    int
	head []int
	to   []int
	next []int
	cap  []int32
	cost []int64
}

func newListMCMF(n int) *listMCMF {
	h := make([]int, n)
	for i := range h {
		h[i] = -1
	}
	return &listMCMF{n: n, head: h}
}

func (g *listMCMF) addEdge(u, v int, capacity int32, cost int64) int {
	id := len(g.to)
	g.to = append(g.to, v, u)
	g.cap = append(g.cap, capacity, 0)
	g.cost = append(g.cost, cost, -cost)
	g.next = append(g.next, g.head[u], g.head[v])
	g.head[u] = id
	g.head[v] = id + 1
	return id
}

func (g *listMCMF) run(ctx context.Context, s, t int) (flow int32, cost int64, err error) {
	const inf = int64(1) << 62
	pot := make([]int64, g.n)
	dist := make([]int64, g.n)
	prevEdge := make([]int, g.n)
	inTree := make([]bool, g.n)
	q := make([]mcmfItem, 0, g.n)
	for {
		if err := ctx.Err(); err != nil {
			return flow, cost, err
		}
		for i := range dist {
			dist[i] = inf
			inTree[i] = false
			prevEdge[i] = -1
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
			for e := g.head[u]; e >= 0; e = g.next[e] {
				if g.cap[e] <= 0 {
					continue
				}
				v := g.to[e]
				nd := dist[u] + g.cost[e] + pot[u] - pot[v]
				if nd < dist[v] {
					dist[v] = nd
					prevEdge[v] = e
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
		var push int32 = 1 << 30
		for v := t; v != s; {
			e := prevEdge[v]
			if g.cap[e] < push {
				push = g.cap[e]
			}
			v = g.to[e^1]
		}
		for v := t; v != s; {
			e := prevEdge[v]
			g.cap[e] -= push
			g.cap[e^1] += push
			cost += int64(push) * g.cost[e]
			v = g.to[e^1]
		}
		flow += push
	}
}

// tiedPair builds one random instance into both solvers: an attack-shaped
// bipartite graph (source capacities above 1, some zero-capacity candidate
// edges) plus random extra arcs, self-loops and parallel edges included,
// all with costs in 1..8 so equal-cost paths abound. It returns the two
// solvers' ids of every edge, in insertion order.
func tiedPair(rng *rand.Rand) (g *mcmf, ref *listMCMF, ids, refIDs []int, s, t int) {
	drivers, sinks := 1+rng.Intn(12), 1+rng.Intn(20)
	n := 2 + drivers + sinks
	s, t = 0, n-1
	g, ref = newMCMF(n), newListMCMF(n)
	add := func(u, v int, c int32, cost int64) {
		ids = append(ids, g.addEdge(u, v, c, cost))
		refIDs = append(refIDs, ref.addEdge(u, v, c, cost))
	}
	for d := 0; d < drivers; d++ {
		add(s, 1+d, int32(2+rng.Intn(4)), 0)
	}
	for k := 0; k < sinks; k++ {
		for c := 0; c < 1+rng.Intn(drivers); c++ {
			capacity := int32(1)
			if rng.Intn(6) == 0 {
				capacity = 0
			}
			add(1+rng.Intn(drivers), 1+drivers+k, capacity, int64(1+rng.Intn(8)))
		}
	}
	for k := 0; k < sinks; k++ {
		add(1+drivers+k, t, 1, 0)
	}
	for i := rng.Intn(n); i > 0; i-- {
		add(rng.Intn(n), rng.Intn(n), int32(rng.Intn(3)), int64(1+rng.Intn(8)))
	}
	return g, ref, ids, refIDs, s, t
}

// TestMCMFMatchesListReference pins the CSR solver to the linked-list
// reference: the same flow, cost and residual capacity on every edge, for
// complete solves and for solves cancelled after a fixed number of polls
// (the partial result a cancelled Attack sees).
func TestMCMFMatchesListReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		limit := 1 << 30
		if trial%2 == 1 {
			limit = 1 + rng.Intn(4)
		}
		g, ref, ids, refIDs, s, tt := tiedPair(rng)
		flow, cost, err := g.run(&errAfterCtx{Context: context.Background(), limit: limit}, s, tt)
		rflow, rcost, rerr := ref.run(&errAfterCtx{Context: context.Background(), limit: limit}, s, tt)
		if flow != rflow || cost != rcost || !errors.Is(err, rerr) {
			t.Fatalf("trial %d (poll limit %d): flow/cost/err %d/%d/%v, reference %d/%d/%v",
				trial, limit, flow, cost, err, rflow, rcost, rerr)
		}
		for k := range ids {
			if got, want := g.residual(ids[k]), ref.cap[refIDs[k]]; got != want {
				t.Fatalf("trial %d (poll limit %d): edge %d residual %d, reference %d", trial, limit, k, got, want)
			}
		}
	}
}

// TestMCMFAllocsIndependentOfIterations pins that a solve allocates a fixed
// set of buffers up front: cutting the same solve off after one augmenting
// iteration or running all 120 costs the same allocation count.
func TestMCMFAllocsIndependentOfIterations(t *testing.T) {
	solve := func(limit int) float64 {
		return testing.AllocsPerRun(3, func() {
			g, s, tt := bigBipartite(120, 1)
			flow, _, _ := g.run(&errAfterCtx{Context: context.Background(), limit: limit}, s, tt)
			if limit > 120 && flow != 120 {
				t.Fatalf("full solve pushed %d, want 120", flow)
			}
		})
	}
	one, all := solve(1), solve(1<<30)
	if one != all {
		t.Fatalf("solve allocations grow with iterations: %.0f after 1 iteration, %.0f after 120", one, all)
	}
	t.Logf("build + solve: %.0f allocs/op at 1 and at 120 iterations", all)
}

func BenchmarkMCMF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, s, t := bigBipartite(400, 1)
		b.StartTimer()
		if _, _, err := g.run(context.Background(), s, t); err != nil {
			b.Fatal(err)
		}
	}
}
