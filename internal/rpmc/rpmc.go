// Package rpmc implements RPMC — recursive partitioning by minimum cuts
// (Murthy, Bhattacharyya, Lee [3]; Sec. 7 of the paper): a top-down heuristic
// that recursively splits the graph with a legal cut (all precedence edges
// crossing left-to-right) of minimum buffer cost, subject to balance bounds,
// producing a lexical ordering for single appearance scheduling.
//
// The minimum legal cut is found heuristically: candidate cuts are the
// ancestor-closed prefixes of a topological order, refined by greedy legal
// moves of individual actors across the cut while the cost improves.
package rpmc

import (
	"errors"
	"fmt"

	"repro/internal/num"
	"repro/internal/sdf"
)

// ErrCyclic reports that the precedence graph restricted to a partition part
// was cyclic, which cannot happen for consistent acyclic inputs.
var ErrCyclic = errors.New("rpmc: cyclic precedence subgraph")

// Order returns the RPMC lexical ordering of the graph's actors. A typed
// overflow error (wrapping num.ErrOverflow) is returned when an edge's TNSE,
// or the summed TNSE + delay of all edges that can cross a cut, exceeds
// int64.
func Order(g *sdf.Graph, q sdf.Repetitions) ([]sdf.ActorID, error) {
	p, err := newPartitioner(g, q)
	if err != nil {
		return nil, err
	}
	all := make([]sdf.ActorID, g.NumActors())
	for i := range all {
		all[i] = sdf.ActorID(i)
	}
	if err := p.recurse(all); err != nil {
		return nil, err
	}
	return all, nil
}

// incEdge is a non-self-loop edge seen from one of its endpoints.
type incEdge struct {
	other sdf.ActorID // the far endpoint
	w     int64       // TNSE + delay: the cost of the edge crossing a cut
	tnse  int64       // token traffic, for the affinity order
	prec  bool        // a precedence edge may only cross left to right
	out   bool        // the near endpoint is the source
}

// partitioner holds the per-graph edge data and the actor-indexed scratch
// the cut search reuses at every level of the recursion. Each level is done
// with the scratch before the next one starts, so one copy suffices.
type partitioner struct {
	// inc[a] lists a's incident edges in edge-ID order, self-loops excluded
	// (no cut separates them); an edge between a and b is in both lists.
	inc [][]incEdge
	// An actor belongs to the set being cut iff mark[a] == stamp.
	mark  []int
	stamp int
	// side[a] is true if a is left of the cut.
	side    []bool
	indeg   []int
	traffic []int64
	// Candidate topological orders and the Kahn ready list, capacity |V|.
	order, affinity, ready []sdf.ActorID
}

func newPartitioner(g *sdf.Graph, q sdf.Repetitions) (*partitioner, error) {
	tnse := make([]int64, g.NumEdges())
	for _, e := range g.Edges() {
		t, err := sdf.TNSE(g, q, e.ID)
		if err != nil {
			return nil, err
		}
		tnse[e.ID] = t
	}
	// Every cut cost, partial sum and affinity traffic is bounded by the
	// total weight, so checking it once lets the cut search add unchecked.
	n := g.NumActors()
	deg := make([]int, n)
	var total int64
	for _, e := range g.Edges() {
		if e.Src == e.Dst {
			continue
		}
		w, err := num.CheckedAdd(tnse[e.ID], e.Delay)
		if err == nil {
			total, err = num.CheckedAdd(total, w)
		}
		if err != nil {
			return nil, fmt.Errorf("rpmc: total cut weight overflows at edge %d: %w", e.ID, num.ErrOverflow)
		}
		deg[e.Src]++
		deg[e.Dst]++
	}
	p := &partitioner{
		inc:      make([][]incEdge, n),
		mark:     make([]int, n),
		side:     make([]bool, n),
		indeg:    make([]int, n),
		traffic:  make([]int64, n),
		order:    make([]sdf.ActorID, 0, n),
		affinity: make([]sdf.ActorID, 0, n),
		ready:    make([]sdf.ActorID, 0, n),
	}
	flat := make([]incEdge, 2*len(g.Edges()))
	off := 0
	for a, d := range deg {
		p.inc[a] = flat[off : off : off+d]
		off += d
	}
	for _, e := range g.Edges() {
		if e.Src == e.Dst {
			continue
		}
		w := tnse[e.ID] + e.Delay
		prec := sdf.PrecedenceEdge(g, q, e.ID)
		p.inc[e.Src] = append(p.inc[e.Src], incEdge{other: e.Dst, w: w, tnse: tnse[e.ID], prec: prec, out: true})
		p.inc[e.Dst] = append(p.inc[e.Dst], incEdge{other: e.Src, w: w, tnse: tnse[e.ID], prec: prec})
	}
	return p, nil
}

// recurse orders actors in place: the left part of the cut, ordered
// recursively, followed by the right part.
func (p *partitioner) recurse(actors []sdf.ActorID) error {
	if len(actors) <= 1 {
		return nil
	}
	left, right, err := p.minLegalCut(actors)
	if err != nil {
		return err
	}
	if err := p.recurse(left); err != nil {
		return err
	}
	return p.recurse(right)
}

func (p *partitioner) in(a sdf.ActorID) bool { return p.mark[a] == p.stamp }

// minLegalCut splits actors into (left, right) such that every precedence
// edge between the parts runs left to right, minimizing the total TNSE +
// delay of crossing edges, subject to balance bounds |V|/3 <= |left| <=
// 2|V|/3 (clamped to [1, |V|-1]). It permutes actors in place into left
// followed by right, each part in plain topological order, and returns the
// two parts.
func (p *partitioner) minLegalCut(actors []sdf.ActorID) (left, right []sdf.ActorID, err error) {
	n := len(actors)
	p.stamp++
	for _, a := range actors {
		p.mark[a] = p.stamp
	}
	// Candidate topological orders over precedence edges within the set:
	// plain Kahn, and an affinity order that keeps heavily-communicating
	// actors adjacent so prefix cuts cross cheap edges.
	order, err := p.localTopo(actors, p.order[:0], false)
	if err != nil {
		return nil, nil, err
	}
	affinity, err := p.localTopo(actors, p.affinity[:0], true)
	if err != nil {
		return nil, nil, err
	}
	lowBound, highBound := max(n/3, 1), min((2*n+2)/3, n-1)

	// Prefix sweep: moving cand[cut-1] to the left changes the cost only
	// through that actor's edges. The first minimal cut wins.
	cands := [2][]sdf.ActorID{order, affinity}
	bestCost, bestCand, bestCut := int64(-1), 0, 0
	for ci, cand := range cands {
		for _, a := range cand {
			p.side[a] = false
		}
		var c int64
		for cut := 1; cut <= highBound; cut++ {
			a := cand[cut-1]
			d, _ := p.flip(a)
			c += d
			p.side[a] = true
			if cut >= lowBound && (bestCost < 0 || c < bestCost) {
				bestCost, bestCand, bestCut = c, ci, cut
			}
		}
	}
	for i, a := range cands[bestCand] {
		p.side[a] = i < bestCut
	}

	// Greedy refinement: move single actors across the cut while legality
	// and balance hold and the cost falls. The starting prefix cut is legal
	// and every accepted move keeps it so, hence a move can break legality
	// only through the moved actor's own edges.
	leftSize := bestCut
	for pass := 0; pass < n; pass++ {
		improved := false
		for _, a := range order {
			newLeft := leftSize + 1
			if p.side[a] {
				newLeft = leftSize - 1
			}
			if newLeft < lowBound || newLeft > highBound {
				continue
			}
			if d, legal := p.flip(a); legal && d < 0 {
				p.side[a] = !p.side[a]
				bestCost += d
				leftSize = newLeft
				improved = true
			}
		}
		if !improved {
			break
		}
	}

	k := 0
	for _, onLeft := range [2]bool{true, false} {
		for _, a := range order {
			if p.side[a] == onLeft {
				actors[k] = a
				k++
			}
		}
	}
	return actors[:leftSize:leftSize], actors[leftSize:], nil
}

// flip reports the change in cut cost if actor a switched sides, and
// whether the cut would stay legal, given that it is legal now.
func (p *partitioner) flip(a sdf.ActorID) (delta int64, legal bool) {
	s := p.side[a]
	legal = true
	for _, e := range p.inc[a] {
		if !p.in(e.other) {
			continue
		}
		o := p.side[e.other]
		if o != s {
			delta -= e.w
		} else {
			delta += e.w
		}
		// A precedence edge whose ends share a side ends up running right
		// to left when a is its source leaving the left or its sink
		// leaving the right.
		if e.prec && o == s && s == e.out {
			legal = false
		}
	}
	return delta, legal
}

// localTopo appends to order a topological sort of the actors of the set
// over precedence edges internal to the set. With affinity false ties break
// by smallest ID; with affinity true the ready actor with the largest token
// traffic to already placed actors is chosen, keeping heavy edges away from
// prefix cuts.
func (p *partitioner) localTopo(actors, order []sdf.ActorID, affinity bool) ([]sdf.ActorID, error) {
	for _, a := range actors {
		p.indeg[a] = 0
		p.traffic[a] = 0
	}
	for _, a := range actors {
		for _, e := range p.inc[a] {
			if e.out && e.prec && p.in(e.other) {
				p.indeg[e.other]++
			}
		}
	}
	ready := p.ready[:0]
	for _, a := range actors {
		if p.indeg[a] == 0 {
			ready = append(ready, a)
		}
	}
	for len(ready) > 0 {
		mi := 0
		if affinity {
			bt := p.traffic[ready[0]]
			for i := 1; i < len(ready); i++ {
				if t := p.traffic[ready[i]]; t > bt || (t == bt && ready[i] < ready[mi]) {
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
		ready[mi] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, a)
		for _, e := range p.inc[a] {
			if !p.in(e.other) {
				continue
			}
			p.traffic[e.other] += e.tnse
			if e.out && e.prec {
				p.indeg[e.other]--
				if p.indeg[e.other] == 0 {
					ready = append(ready, e.other)
				}
			}
		}
	}
	if len(order) != len(actors) {
		return nil, ErrCyclic
	}
	return order, nil
}
