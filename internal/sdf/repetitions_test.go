package sdf

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/num"
)

// repetitionsRef is the balance solve over per-actor adjacency lists built
// by one append per edge endpoint, scaling every component after the whole
// traversal: the oracle for Repetitions' walk of the merged out and in
// lists.
func repetitionsRef(g *Graph) (Repetitions, error) {
	n := len(g.actors)
	qn := make([]int64, n)
	qd := make([]int64, n)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	type arc struct {
		to         ActorID
		prod, cons int64
	}
	adj := make([][]arc, n)
	for _, e := range g.edges {
		adj[e.Src] = append(adj[e.Src], arc{to: e.Dst, prod: e.Prod, cons: e.Cons})
		adj[e.Dst] = append(adj[e.Dst], arc{to: e.Src, prod: e.Cons, cons: e.Prod})
	}
	nc := 0
	for root := 0; root < n; root++ {
		if comp[root] >= 0 {
			continue
		}
		cid := nc
		nc++
		comp[root] = cid
		qn[root], qd[root] = 1, 1
		stack := []ActorID{ActorID(root)}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range adj[u] {
				tn, err := mulCheck(qn[u], a.prod)
				if err != nil {
					return nil, err
				}
				td, err := mulCheck(qd[u], a.cons)
				if err != nil {
					return nil, err
				}
				gg := num.GCD(tn, td)
				tn, td = tn/gg, td/gg
				if comp[a.to] < 0 {
					comp[a.to] = cid
					qn[a.to], qd[a.to] = tn, td
					stack = append(stack, a.to)
				} else if qn[a.to] != tn || qd[a.to] != td {
					return nil, fmt.Errorf("%w: actors %s and %s", ErrInconsistent,
						g.actors[u].Name, g.actors[a.to].Name)
				}
			}
		}
	}
	q := make(Repetitions, n)
	for cid := 0; cid < nc; cid++ {
		var l int64 = 1
		for a := 0; a < n; a++ {
			if comp[a] == cid {
				var err error
				if l, err = lcm64(l, qd[a]); err != nil {
					return nil, err
				}
			}
		}
		var cg int64
		for a := 0; a < n; a++ {
			if comp[a] == cid {
				v, err := mulCheck(qn[a], l/qd[a])
				if err != nil {
					return nil, err
				}
				q[a] = v
				cg = num.GCD(cg, v)
			}
		}
		for a := 0; a < n && cg > 1; a++ {
			if comp[a] == cid {
				q[a] /= cg
			}
		}
	}
	return q, nil
}

// randomRateGraph draws a graph that is consistent, inconsistent or
// overflowing depending on the seed: a few components, self-loops and
// parallel edges, rates from a small or a huge range.
func randomRateGraph(rng *rand.Rand) *Graph {
	g := New("r")
	n := 1 + rng.Intn(24)
	for i := 0; i < n; i++ {
		g.AddActor(fmt.Sprintf("a%d", i))
	}
	maxRate := int64(6)
	if rng.Intn(8) == 0 {
		maxRate = 1 << 40
	}
	consistent := rng.Intn(2) == 0
	// A hidden consistent solution: rates taken from it balance by
	// construction; otherwise rates are drawn freely.
	hidden := make([]int64, n)
	for i := range hidden {
		hidden[i] = 1 + rng.Int63n(maxRate)
	}
	m := rng.Intn(2 * n)
	for i := 0; i < m; i++ {
		src, dst := ActorID(rng.Intn(n)), ActorID(rng.Intn(n))
		prod, cons := 1+rng.Int63n(maxRate), 1+rng.Int63n(maxRate)
		if consistent {
			gg := num.GCD(hidden[src], hidden[dst])
			prod, cons = hidden[dst]/gg, hidden[src]/gg
		}
		g.AddEdge(src, dst, prod, cons, rng.Int63n(8))
	}
	return g
}

func TestRepetitionsMatchesAdjacencyListSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ok, inconsistent, overflow int
	for i := 0; i < 4000; i++ {
		g := randomRateGraph(rng)
		got, gotErr := g.Repetitions()
		want, wantErr := repetitionsRef(g)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("graph %d:\n%s\ngot %v, %v\nwant %v, %v", i, g, got, gotErr, want, wantErr)
		}
		switch {
		case wantErr == nil:
			ok++
		case errors.Is(wantErr, ErrInconsistent):
			inconsistent++
		case errors.Is(wantErr, ErrOverflow):
			overflow++
		}
	}
	if ok == 0 || inconsistent == 0 || overflow == 0 {
		t.Fatalf("corpus misses a case: %d consistent, %d inconsistent, %d overflowing", ok, inconsistent, overflow)
	}
}

func TestIsAcyclicMatchesTopologicalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var acyclic, cyclic int
	for i := 0; i < 4000; i++ {
		g := randomRateGraph(rng)
		q, err := g.Repetitions()
		if err != nil {
			continue
		}
		_, sortErr := g.TopologicalSort(q)
		if got := g.IsAcyclic(q); got != (sortErr == nil) {
			t.Fatalf("graph %d:\n%s\nIsAcyclic = %v, TopologicalSort error %v", i, g, got, sortErr)
		}
		if sortErr == nil {
			acyclic++
		} else {
			cyclic++
		}
	}
	if acyclic == 0 || cyclic == 0 {
		t.Fatalf("corpus misses a case: %d acyclic, %d cyclic", acyclic, cyclic)
	}
}
