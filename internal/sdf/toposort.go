package sdf

import (
	"errors"
	"math/rand"

	"repro/internal/num"
)

// ErrCyclic reports that an operation requiring an acyclic graph was applied
// to a graph with a (delay-insufficient) cycle.
var ErrCyclic = errors.New("sdf: graph has a cycle")

// PrecedenceEdge reports whether e constrains firing order for single
// appearance scheduling: an edge whose initial tokens already cover one full
// period's consumption (del(e) >= TNSE(e)) imposes no precedence between the
// lexical positions of its endpoints (see Bhattacharyya et al. [3]).
func PrecedenceEdge(g *Graph, q Repetitions, e EdgeID) bool {
	ed := g.Edge(e)
	consumed, err := num.CheckedMul(ed.Cons, q[ed.Dst])
	if err != nil {
		// The true product exceeds MaxInt64 and therefore any delay, so the
		// delay cannot cover a full period's consumption.
		return true
	}
	return ed.Delay < consumed
}

// IsAcyclic reports whether the precedence graph (edges filtered by
// PrecedenceEdge) is acyclic. Whether every actor gets ordered does not
// depend on tie breaking, so Kahn's algorithm pops its ready list as a
// plain stack here, evaluates each edge's precedence once and only counts
// the actors it pops.
func (g *Graph) IsAcyclic(q Repetitions) bool {
	n := len(g.actors)
	prec := make([]bool, len(g.edges))
	slab := make([]int, 2*n)
	indeg, ready := slab[:n:n], slab[n:n]
	for i := range g.edges {
		if prec[i] = PrecedenceEdge(g, q, EdgeID(i)); prec[i] {
			indeg[g.edges[i].Dst]++
		}
	}
	for a, d := range indeg {
		if d == 0 {
			ready = append(ready, a)
		}
	}
	popped := 0
	for len(ready) > 0 {
		a := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		popped++
		for _, eid := range g.out[a] {
			if !prec[eid] {
				continue
			}
			dst := g.edges[eid].Dst
			indeg[dst]--
			if indeg[dst] == 0 {
				ready = append(ready, int(dst))
			}
		}
	}
	return popped == n
}

// TopologicalSort returns a deterministic topological order of the actors
// with respect to precedence edges (Kahn's algorithm with smallest-ID tie
// breaking). It returns ErrCyclic if no such order exists.
func (g *Graph) TopologicalSort(q Repetitions) ([]ActorID, error) {
	return g.topoSort(q, minIndex)
}

// RandomTopologicalSort returns a random topological order drawn by Kahn's
// algorithm with uniformly random tie-breaking among ready actors. The
// distribution is not exactly uniform over all topological sorts but samples
// the space broadly, which is what the Sec. 10.1 random-search experiment
// requires.
func (g *Graph) RandomTopologicalSort(q Repetitions, rng *rand.Rand) ([]ActorID, error) {
	return g.topoSort(q, func(ready []ActorID) int { return rng.Intn(len(ready)) })
}

// topoSort runs Kahn's algorithm, taking from the ready list the actor at
// the index pick returns.
func (g *Graph) topoSort(q Repetitions, pick func(ready []ActorID) int) ([]ActorID, error) {
	n := len(g.actors)
	indeg := make([]int, n)
	for _, e := range g.edges {
		if PrecedenceEdge(g, q, e.ID) {
			indeg[e.Dst]++
		}
	}
	ready := make([]ActorID, 0, n)
	for a := 0; a < n; a++ {
		if indeg[a] == 0 {
			ready = append(ready, ActorID(a))
		}
	}
	order := make([]ActorID, 0, n)
	for len(ready) > 0 {
		i := pick(ready)
		a := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, a)
		for _, eid := range g.out[a] {
			e := g.edges[eid]
			if !PrecedenceEdge(g, q, eid) {
				continue
			}
			indeg[e.Dst]--
			if indeg[e.Dst] == 0 {
				ready = append(ready, e.Dst)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCyclic
	}
	return order, nil
}

func minIndex(ids []ActorID) int {
	mi := 0
	for i, v := range ids {
		if v < ids[mi] {
			mi = i
		}
	}
	return mi
}

// AllTopologicalSorts enumerates every topological sort of the precedence
// graph, up to the given limit (0 means no limit). It is exponential and
// intended only for exhaustive verification on tiny graphs.
func (g *Graph) AllTopologicalSorts(q Repetitions, limit int) [][]ActorID {
	n := len(g.actors)
	indeg := make([]int, n)
	for _, e := range g.edges {
		if PrecedenceEdge(g, q, e.ID) {
			indeg[e.Dst]++
		}
	}
	used := make([]bool, n)
	cur := make([]ActorID, 0, n)
	var all [][]ActorID
	var rec func()
	rec = func() {
		if limit > 0 && len(all) >= limit {
			return
		}
		if len(cur) == n {
			all = append(all, append([]ActorID(nil), cur...))
			return
		}
		for a := 0; a < n; a++ {
			if used[a] || indeg[a] != 0 {
				continue
			}
			used[a] = true
			cur = append(cur, ActorID(a))
			for _, eid := range g.out[a] {
				if PrecedenceEdge(g, q, eid) {
					indeg[g.edges[eid].Dst]--
				}
			}
			rec()
			for _, eid := range g.out[a] {
				if PrecedenceEdge(g, q, eid) {
					indeg[g.edges[eid].Dst]++
				}
			}
			cur = cur[:len(cur)-1]
			used[a] = false
		}
	}
	rec()
	return all
}

// IsChain reports whether the graph is chain-structured under the given
// topological order: every edge connects lexically adjacent actors. Chain
// graphs admit the precise shared-buffer DP of Sec. 6.
func (g *Graph) IsChain(order []ActorID) bool {
	pos := make([]int, len(g.actors))
	for i, a := range order {
		pos[a] = i
	}
	for _, e := range g.edges {
		if pos[e.Dst]-pos[e.Src] != 1 {
			return false
		}
	}
	return true
}
