package rpmc

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/num"
	"repro/internal/randsdf"
	"repro/internal/sdf"
	"repro/internal/systems"
)

// corpusGraph draws the seed-th differential corpus graph: a random
// consistent acyclic graph of 2–150 actors with some delayed edges, to which
// parallel edges, self-loops and delayed back edges are added. The back
// edges and self-loops carry a full period of tokens, so they are not
// precedence edges and the precedence graph stays acyclic.
func corpusGraph(t testing.TB, seed int64) *sdf.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2 + int(seed%149)
	g := randsdf.Graph(rng, randsdf.Config{Actors: n, DelayProb: 0.2})
	q, err := g.Repetitions()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	edges := slices.Clone(g.Edges())
	for k := rng.Intn(1 + n/4); k > 0; k-- {
		e := edges[rng.Intn(len(edges))]
		g.AddEdge(e.Src, e.Dst, e.Prod, e.Cons, e.Delay)
	}
	for k := rng.Intn(1 + n/8); k > 0; k-- {
		a := sdf.ActorID(rng.Intn(n))
		g.AddEdge(a, a, 1, 1, q[a])
	}
	for k := rng.Intn(1 + n/6); k > 0; k-- {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		gg := num.GCD(q[i], q[j])
		prod, cons := q[i]/gg, q[j]/gg
		g.AddEdge(sdf.ActorID(j), sdf.ActorID(i), prod, cons, cons*q[i]*int64(1+rng.Intn(2)))
	}
	q2, err := g.Repetitions()
	if err != nil || !slices.Equal(q, q2) {
		t.Fatalf("seed %d: decorated graph changed repetitions: %v", seed, err)
	}
	return g
}

// corpus returns the Table-1 systems and 520 seeded random graphs (60 in
// short mode).
func corpus(t testing.TB) []*sdf.Graph {
	t.Helper()
	graphs := systems.Table1Systems()
	seeds := int64(520)
	if testing.Short() {
		seeds = 60
	}
	for s := int64(0); s < seeds; s++ {
		graphs = append(graphs, corpusGraph(t, s))
	}
	return graphs
}

func allActors(g *sdf.Graph) []sdf.ActorID {
	all := make([]sdf.ActorID, g.NumActors())
	for i := range all {
		all[i] = sdf.ActorID(i)
	}
	return all
}

// TestOrderMatchesOracle: the slice-based partitioner returns the map-based
// oracle's order, and the same cut at every level of the recursion and on
// random subsets of 2, 3 and more actors.
func TestOrderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for gi, g := range corpus(t) {
		q, err := g.Repetitions()
		if err != nil {
			t.Fatal(err)
		}
		want, err := mustOracle(t, g, q).order()
		if err != nil {
			t.Fatalf("graph %d (%s): oracle: %v", gi, g.Name, err)
		}
		got, err := Order(g, q)
		if err != nil {
			t.Fatalf("graph %d (%s): %v", gi, g.Name, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("graph %d (%s): order %v, oracle %v", gi, g.Name, got, want)
		}
		p, err := newPartitioner(g, q)
		if err != nil {
			t.Fatal(err)
		}
		o := mustOracle(t, g, q)
		compareCuts(t, gi, p, o, allActors(g))
		for k := 0; k < 4 && g.NumActors() >= 2; k++ {
			set := allActors(g)
			rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
			size := []int{2, 3, 2 + rng.Intn(len(set)-1), len(set)}[k]
			compareCut(t, gi, p, o, set[:min(size, len(set))])
		}
	}
}

func mustOracle(t testing.TB, g *sdf.Graph, q sdf.Repetitions) *oracle {
	t.Helper()
	o, err := newOracle(g, q)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// compareCut checks one cut of the set and returns the oracle's parts.
func compareCut(t *testing.T, gi int, p *partitioner, o *oracle, set []sdf.ActorID) (left, right []sdf.ActorID) {
	t.Helper()
	wl, wr, werr := o.minLegalCut(slices.Clone(set))
	gl, gr, gerr := p.minLegalCut(slices.Clone(set))
	if !errors.Is(gerr, werr) {
		t.Fatalf("graph %d set %v: error %v, oracle %v", gi, set, gerr, werr)
	}
	if !slices.Equal(gl, wl) || !slices.Equal(gr, wr) {
		t.Fatalf("graph %d set %v: cut %v | %v, oracle %v | %v", gi, set, gl, gr, wl, wr)
	}
	return wl, wr
}

// compareCuts walks the oracle's recursion, checking every cut.
func compareCuts(t *testing.T, gi int, p *partitioner, o *oracle, set []sdf.ActorID) {
	t.Helper()
	if len(set) <= 1 {
		return
	}
	left, right := compareCut(t, gi, p, o, set)
	compareCuts(t, gi, p, o, left)
	compareCuts(t, gi, p, o, right)
}

// TestOrderTotalWeightOverflow: every edge's TNSE + delay fits in int64 but
// their sum does not, which unchecked cut costs would wrap.
func TestOrderTotalWeightOverflow(t *testing.T) {
	g := sdf.New("wide")
	a := g.AddActor("A")
	b := g.AddActor("B")
	c := g.AddActor("C")
	const big = int64(1) << 61
	g.AddEdge(a, c, big, big, big)
	g.AddEdge(b, c, big, big, big)
	q, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Order(g, q); !errors.Is(err, num.ErrOverflow) {
		t.Fatalf("Order error = %v, want ErrOverflow", err)
	}
	// Each edge alone is fine.
	g1 := sdf.New("one")
	a1 := g1.AddActor("A")
	b1 := g1.AddActor("B")
	g1.AddEdge(a1, b1, big, big, big)
	q1, _ := g1.Repetitions()
	if _, err := Order(g1, q1); err != nil {
		t.Fatalf("single edge: %v", err)
	}
}
