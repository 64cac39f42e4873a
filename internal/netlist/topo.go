package netlist

import "math"

// TopoOrder returns gate IDs in a combinational topological order: a gate
// appears after all gates whose outputs it reads, except across DFF
// boundaries (a DFF output is treated as a source). The second result is
// false when the combinational portion of the netlist contains a cycle.
func (nl *Netlist) TopoOrder() ([]int, bool) {
	indeg := make([]int, len(nl.Gates))
	for _, g := range nl.Gates {
		if g.Type.IsSequential() {
			continue // DFF is a source for ordering purposes
		}
		for _, netID := range g.Fanin {
			d := nl.Nets[netID].Driver
			if d >= 0 && !nl.Gates[d].Type.IsSequential() {
				indeg[g.ID]++
			}
		}
	}
	queue := make([]int, 0, len(nl.Gates))
	for _, g := range nl.Gates {
		if g.Type.IsSequential() || indeg[g.ID] == 0 {
			queue = append(queue, g.ID)
		}
	}
	order := make([]int, 0, len(nl.Gates))
	for len(queue) > 0 {
		gid := queue[0]
		queue = queue[1:]
		order = append(order, gid)
		if nl.Gates[gid].Type.IsSequential() {
			// DFF edges were never counted in the indegrees (DFF outputs
			// are sources), so processing a DFF must not decrement its
			// sinks — doing so would release gates before their real
			// combinational drivers.
			continue
		}
		out := nl.Gates[gid].Out
		for _, s := range nl.Nets[out].Sinks {
			sg := nl.Gates[s.Gate]
			if sg.Type.IsSequential() {
				continue
			}
			indeg[sg.ID]--
			if indeg[sg.ID] == 0 {
				queue = append(queue, sg.ID)
			}
		}
	}
	return order, len(order) == len(nl.Gates)
}

// HasCombLoop reports whether the netlist contains a combinational cycle.
func (nl *Netlist) HasCombLoop() bool {
	_, ok := nl.TopoOrder()
	return !ok
}

// ReachableGates returns the set of gate IDs combinationally reachable from
// the output of gate `from` (not crossing DFF boundaries, excluding `from`
// itself unless it lies on a cycle).
func (nl *Netlist) ReachableGates(from int) map[int]bool {
	seen := make(map[int]bool)
	var stack []int
	push := func(netID int) {
		for _, s := range nl.Nets[netID].Sinks {
			if !seen[s.Gate] {
				seen[s.Gate] = true
				stack = append(stack, s.Gate)
			}
		}
	}
	push(nl.Gates[from].Out)
	for len(stack) > 0 {
		gid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := nl.Gates[gid]
		if g.Type.IsSequential() {
			continue // stop at state boundary
		}
		push(g.Out)
	}
	return seen
}

// PathExists reports whether a combinational path exists from the output of
// gate `from` to (any input of) gate `to`. It is the loop-safety oracle used
// by the randomization stage: connecting the output of `to` into the fan-in
// cone of `from` is only safe when PathExists(from, to) is false... more
// precisely, wiring driver D to a sink pin of gate S creates a loop exactly
// when S's output combinationally reaches D.
func (nl *Netlist) PathExists(from, to int) bool {
	if from == to {
		return true
	}
	return nl.walkFanout(from, to)
}

// Cone is the forward combinational cone of one gate, as FanoutCone stamped
// it into the netlist's walk scratch. It is valid until the next
// FanoutCone or PathExists call on the same netlist.
type Cone struct {
	nl   *Netlist
	from int
	ep   int32
}

// FanoutCone stamps the forward combinational cone of gate `from` once, so
// that many PathExists(from, ·) questions against an unchanged netlist
// become membership tests: Cone.Has(to) == PathExists(from, to) for every
// gate `to`. The walk and its stop-at-sequential rule are PathExists's.
func (nl *Netlist) FanoutCone(from int) Cone {
	nl.walkFanout(from, -1)
	return Cone{nl: nl, from: from, ep: nl.pathEpoch}
}

// Has reports whether PathExists(from, g) holds for the cone's gate
// `from`. It panics if another walk on the netlist has reused the scratch
// since the cone was stamped.
func (c Cone) Has(g int) bool {
	if c.nl.pathEpoch != c.ep {
		panic("netlist: Cone used after another walk on its netlist")
	}
	return g == c.from || c.nl.pathSeen[g] == c.ep
}

// walkFanout is the forward walk behind PathExists and FanoutCone: a DFS
// over combinational fan-out from the output of gate `from`. It expands
// `from` even when that is sequential, but stops at every later sequential
// gate. Each gate reached as a sink is stamped with a fresh epoch in
// pathSeen (`from` is stamped up front). With stop >= 0 the walk returns
// true as soon as it reaches stop; with stop < 0 it stamps the whole cone
// and returns false.
func (nl *Netlist) walkFanout(from, stop int) bool {
	// Epoch-stamped visited scratch: zero-fill only when the gate count
	// outgrew the buffer or the epoch counter wrapped, not per query.
	if len(nl.pathSeen) < len(nl.Gates) || nl.pathEpoch == math.MaxInt32 {
		nl.pathSeen = make([]int32, len(nl.Gates))
		nl.pathEpoch = 0
	}
	nl.pathEpoch++
	ep := nl.pathEpoch
	seen := nl.pathSeen
	stack := append(nl.pathStack[:0], from)
	seen[from] = ep
	//smlint:bounded each gate is stamped at most once per epoch, and only a newly stamped gate is pushed
	for len(stack) > 0 {
		gid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if gid != from && nl.Gates[gid].Type.IsSequential() {
			continue
		}
		for _, s := range nl.Nets[nl.Gates[gid].Out].Sinks {
			if s.Gate == stop {
				nl.pathStack = stack[:0]
				return true
			}
			if seen[s.Gate] != ep {
				seen[s.Gate] = ep
				stack = append(stack, s.Gate)
			}
		}
	}
	nl.pathStack = stack[:0]
	return false
}

// Levels assigns each gate its combinational level (longest distance in
// gates from any PI/DFF output). Sequential gates get level 0. The second
// result is false for cyclic netlists.
func (nl *Netlist) Levels() ([]int, bool) {
	order, ok := nl.TopoOrder()
	if !ok {
		return nil, false
	}
	level := make([]int, len(nl.Gates))
	for _, gid := range order {
		g := nl.Gates[gid]
		if g.Type.IsSequential() {
			continue
		}
		lv := 0
		for _, netID := range g.Fanin {
			d := nl.Nets[netID].Driver
			if d >= 0 && !nl.Gates[d].Type.IsSequential() && level[d]+1 > lv {
				lv = level[d] + 1
			}
		}
		level[gid] = lv
	}
	return level, true
}

// FanoutGates returns the IDs of gates directly reading the output of g.
func (nl *Netlist) FanoutGates(g int) []int {
	out := nl.Gates[g].Out
	ids := make([]int, 0, len(nl.Nets[out].Sinks))
	for _, s := range nl.Nets[out].Sinks {
		ids = append(ids, s.Gate)
	}
	return ids
}

// FaninGates returns the IDs of gates directly driving inputs of g
// (primary-input drivers are skipped).
func (nl *Netlist) FaninGates(g int) []int {
	var ids []int
	for _, netID := range nl.Gates[g].Fanin {
		if d := nl.Nets[netID].Driver; d >= 0 {
			ids = append(ids, d)
		}
	}
	return ids
}
