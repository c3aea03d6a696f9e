package rpmc

import (
	"fmt"

	"repro/internal/num"
	"repro/internal/sdf"
)

// oracle is the map-based cut search the slice-based partitioner replaced,
// kept verbatim as a differential oracle: every cut and every order of the
// partitioner must equal its output.
type oracle struct {
	g    *sdf.Graph
	q    sdf.Repetitions
	tnse []int64
}

func newOracle(g *sdf.Graph, q sdf.Repetitions) (*oracle, error) {
	p := &oracle{g: g, q: q, tnse: make([]int64, g.NumEdges())}
	for _, e := range g.Edges() {
		t, err := sdf.TNSE(g, q, e.ID)
		if err != nil {
			return nil, err
		}
		p.tnse[e.ID] = t
	}
	return p, nil
}

func (p *oracle) order() ([]sdf.ActorID, error) {
	all := make([]sdf.ActorID, p.g.NumActors())
	for i := range all {
		all[i] = sdf.ActorID(i)
	}
	return p.recurse(all)
}

func (p *oracle) recurse(actors []sdf.ActorID) ([]sdf.ActorID, error) {
	if len(actors) <= 1 {
		return actors, nil
	}
	left, right, err := p.minLegalCut(actors)
	if err != nil {
		return nil, err
	}
	lo, err := p.recurse(left)
	if err != nil {
		return nil, err
	}
	ro, err := p.recurse(right)
	if err != nil {
		return nil, err
	}
	return append(lo, ro...), nil
}

// minLegalCut splits actors into (left, right) such that every precedence
// edge between the parts runs left to right, minimizing the total TNSE of
// crossing edges. Balance bounds |V|/3 <= |left| <= 2|V|/3 are enforced when
// satisfiable and relaxed otherwise.
func (p *oracle) minLegalCut(actors []sdf.ActorID) (left, right []sdf.ActorID, err error) {
	n := len(actors)
	inSet := make(map[sdf.ActorID]bool, n)
	for _, a := range actors {
		inSet[a] = true
	}
	// Candidate topological orders over precedence edges within the set:
	// plain Kahn, and an affinity order that keeps heavily-communicating
	// actors adjacent so prefix cuts cross cheap edges.
	order, err := p.localTopo(actors, inSet, false)
	if err != nil {
		return nil, nil, err
	}
	affinity, err := p.localTopo(actors, inSet, true)
	if err != nil {
		return nil, nil, err
	}
	// Edge weights for crossing cost: TNSE + delay of edges internal to the
	// set (either direction crossing the cut is charged; precedence edges
	// must run forward for legality).
	type localEdge struct {
		src, dst sdf.ActorID
		w        int64
		prec     bool
	}
	var edges []localEdge
	for _, e := range p.g.Edges() {
		if !inSet[e.Src] || !inSet[e.Dst] || e.Src == e.Dst {
			continue
		}
		w, werr := num.CheckedAdd(p.tnse[e.ID], e.Delay)
		if werr != nil {
			return nil, nil, fmt.Errorf("rpmc: cut weight of edge %d overflows: %w", e.ID, num.ErrOverflow)
		}
		edges = append(edges, localEdge{
			src: e.Src, dst: e.Dst,
			w:    w,
			prec: sdf.PrecedenceEdge(p.g, p.q, e.ID),
		})
	}
	lowBound, highBound := n/3, (2*n+2)/3
	if lowBound < 1 {
		lowBound = 1
	}
	if highBound >= n {
		highBound = n - 1
	}
	if lowBound > highBound {
		lowBound, highBound = 1, n-1
	}

	// side[a]: true if on the left.
	side := make(map[sdf.ActorID]bool, n)
	cost := func() int64 {
		var c int64
		for _, e := range edges {
			if side[e.src] != side[e.dst] {
				c += e.w
			}
		}
		return c
	}
	legal := func() bool {
		for _, e := range edges {
			if e.prec && !side[e.src] && side[e.dst] {
				return false
			}
		}
		return true
	}

	bestCost := int64(-1)
	var bestLeftSize int
	var bestSide map[sdf.ActorID]bool
	// Candidate prefixes of each topological order.
	for _, cand := range [][]sdf.ActorID{order, affinity} {
		for cut := 1; cut < n; cut++ {
			for i, a := range cand {
				side[a] = i < cut
			}
			if cut < lowBound || cut > highBound {
				continue
			}
			if c := cost(); bestCost < 0 || c < bestCost {
				bestCost, bestLeftSize = c, cut
				bestSide = copySide(side)
			}
		}
	}
	if bestSide == nil {
		// Bounds filtered everything (tiny sets): fall back to the most
		// balanced prefix.
		cut := n / 2
		if cut == 0 {
			cut = 1
		}
		for i, a := range order {
			side[a] = i < cut
		}
		bestCost, bestLeftSize = cost(), cut
		bestSide = copySide(side)
	}

	// Greedy refinement: move single actors across the cut while legality,
	// balance and cost all improve or hold.
	side = bestSide
	leftSize := bestLeftSize
	for pass := 0; pass < n; pass++ {
		improved := false
		for _, a := range order {
			side[a] = !side[a]
			newLeft := leftSize
			if side[a] {
				newLeft++
			} else {
				newLeft--
			}
			if newLeft < lowBound || newLeft > highBound || !legal() {
				side[a] = !side[a]
				continue
			}
			if c := cost(); c < bestCost {
				bestCost = c
				leftSize = newLeft
				improved = true
			} else {
				side[a] = !side[a]
			}
		}
		if !improved {
			break
		}
	}

	for _, a := range order {
		if side[a] {
			left = append(left, a)
		} else {
			right = append(right, a)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		// Cannot happen with the bounds above, but guard anyway.
		mid := n / 2
		return order[:mid], order[mid:], nil
	}
	return left, right, nil
}

func copySide(m map[sdf.ActorID]bool) map[sdf.ActorID]bool {
	c := make(map[sdf.ActorID]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// localTopo topologically sorts the actors of the set over precedence edges
// internal to the set. With affinity false ties break by smallest ID; with
// affinity true the ready actor with the largest token traffic to already
// placed actors is chosen, keeping heavy edges away from prefix cuts.
func (p *oracle) localTopo(actors []sdf.ActorID, inSet map[sdf.ActorID]bool, affinity bool) ([]sdf.ActorID, error) {
	indeg := make(map[sdf.ActorID]int, len(actors))
	for _, a := range actors {
		indeg[a] = 0
	}
	for _, e := range p.g.Edges() {
		if inSet[e.Src] && inSet[e.Dst] && e.Src != e.Dst && sdf.PrecedenceEdge(p.g, p.q, e.ID) {
			indeg[e.Dst]++
		}
	}
	placed := make(map[sdf.ActorID]bool, len(actors))
	traffic := func(a sdf.ActorID) int64 {
		var t int64
		for _, eid := range p.g.In(a) {
			e := p.g.Edge(eid)
			if placed[e.Src] {
				t += p.tnse[eid]
			}
		}
		for _, eid := range p.g.Out(a) {
			e := p.g.Edge(eid)
			if placed[e.Dst] {
				t += p.tnse[eid]
			}
		}
		return t
	}
	var ready []sdf.ActorID
	for _, a := range actors {
		if indeg[a] == 0 {
			ready = append(ready, a)
		}
	}
	var order []sdf.ActorID
	for len(ready) > 0 {
		mi := 0
		if affinity {
			bt := traffic(ready[0])
			for i := 1; i < len(ready); i++ {
				if t := traffic(ready[i]); t > bt || (t == bt && ready[i] < ready[mi]) {
					mi, bt = i, t
				}
			}
		} else {
			for i, v := range ready {
				if v < ready[mi] {
					mi = i
				}
			}
		}
		a := ready[mi]
		placed[a] = true
		ready[mi] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, a)
		for _, eid := range p.g.Out(a) {
			e := p.g.Edge(eid)
			if inSet[e.Dst] && e.Dst != a && sdf.PrecedenceEdge(p.g, p.q, eid) {
				indeg[e.Dst]--
				if indeg[e.Dst] == 0 {
					ready = append(ready, e.Dst)
				}
			}
		}
	}
	if len(order) != len(actors) {
		return nil, ErrCyclic
	}
	return order, nil
}
