package looping

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/num"
	"repro/internal/randsdf"
	"repro/internal/rpmc"
	"repro/internal/sdf"
	"repro/internal/systems"
)

// oracleChain is a chain with the per-position span indexes of the
// closure-based split scan that the row-by-row crossings replaced.
type oracleChain struct {
	*chain
	byLo [][]int // indices into spans by lo position
	byHi [][]int // indices into spans by hi position
}

func newOracleChain(c *chain) *oracleChain {
	o := &oracleChain{chain: c, byLo: make([][]int, len(c.order)), byHi: make([][]int, len(c.order))}
	for idx, sp := range c.spans {
		o.byLo[sp.lo] = append(o.byLo[sp.lo], idx)
		o.byHi[sp.hi] = append(o.byHi[sp.hi], idx)
	}
	return o
}

// forEachSplit is the closure-based split scan, kept as an oracle: it visits
// every split position k in [i, j) of the window [i..j] in ascending order,
// passing the split cost (EQ 3 extended with delays) and the number of
// crossing edges.
func (c *oracleChain) forEachSplit(i, j int, fn func(k int, cost int64, count int)) {
	g := c.gcd[i][j]
	var tnse, delay int64
	count := 0
	for k := i; k < j; k++ {
		for _, idx := range c.byLo[k] {
			if sp := c.spans[idx]; sp.hi <= j {
				tnse += sp.tnse
				delay += sp.delay
				count++
			}
		}
		for _, idx := range c.byHi[k] {
			if sp := c.spans[idx]; sp.lo >= i {
				tnse -= sp.tnse
				delay -= sp.delay
				count--
			}
		}
		fn(k, tnse/g+delay, count)
	}
}

// oracleDP is the DPPO (shared false) and SDPPO (shared true) table fill as
// it was before splitDP: windows by ascending span, one forEachSplit call
// per window.
func (c *oracleChain) oracleDP(shared bool) (int64, [][]int) {
	n := len(c.order)
	b := make([][]int64, n)
	split := make([][]int, n)
	for i := range b {
		b[i] = make([]int64, n)
		split[i] = make([]int, n)
	}
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			best := int64(-1)
			bestK := i
			if shared {
				c.forEachSplit(i, j, func(k int, cost int64, _ int) {
					m := b[i][k]
					if r := b[k+1][j]; r > m {
						m = r
					}
					v := m + cost
					if best < 0 || v < best {
						best, bestK = v, k
					}
				})
			} else {
				c.forEachSplit(i, j, func(k int, cost int64, _ int) {
					v := b[i][k] + b[k+1][j] + cost
					if best < 0 || v < best {
						best, bestK = v, k
					}
				})
			}
			b[i][j] = best
			split[i][j] = bestK
		}
	}
	return b[0][n-1], split
}

// oracleTripleCells is the precise DP's table fill as it was before
// tripleCells: windows by ascending span, one forEachSplit call per window.
func (c *oracleChain) oracleTripleCells() [][][]entry {
	n := len(c.order)
	cells := make([][][]entry, n)
	for i := range cells {
		cells[i] = make([][]entry, n)
		cells[i][i] = []entry{{t: Triple{0, 0, 0}}}
	}
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			var cell []entry
			c.forEachSplit(i, j, func(k int, cost int64, _ int) {
				rL := c.gcd[i][k] / c.gcd[i][j]
				rR := c.gcd[k+1][j] / c.gcd[i][j]
				for li, le := range cells[i][k] {
					for ri, re := range cells[k+1][j] {
						t := combineTriples(le.t, re.t, cost, rL, rR)
						cell = insertPareto(cell, entry{t: t, k: k, left: li, rght: ri})
					}
				}
			})
			cells[i][j] = cell
		}
	}
	return cells
}

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
	return g
}

// TestSplitDPMatchesOracle: on the Table-1 systems and 520 seeded random
// graphs (60 in short mode), under the plain topological order or the RPMC
// order (alternating), the inline DP yields the oracle's cost and split
// table for both buffer models.
func TestSplitDPMatchesOracle(t *testing.T) {
	graphs := systems.Table1Systems()
	seeds := int64(520)
	if testing.Short() {
		seeds = 60
	}
	for s := int64(0); s < seeds; s++ {
		graphs = append(graphs, corpusGraph(t, s))
	}
	for gi, g := range graphs {
		q, err := g.Repetitions()
		if err != nil {
			t.Fatalf("graph %d (%s): %v", gi, g.Name, err)
		}
		order, err := g.TopologicalSort(q)
		if gi%2 == 1 {
			order, err = rpmc.Order(g, q)
		}
		if err != nil {
			t.Fatalf("graph %d (%s): %v", gi, g.Name, err)
		}
		c, err := newChain(g, q, order)
		if err != nil {
			t.Fatalf("graph %d (%s): %v", gi, g.Name, err)
		}
		for _, shared := range []bool{false, true} {
			cost, split := c.splitDP(shared)
			wcost, wsplit := newOracleChain(c).oracleDP(shared)
			if cost != wcost {
				t.Fatalf("graph %d (%s) shared=%v: cost %d, oracle %d", gi, g.Name, shared, cost, wcost)
			}
			for i := range split {
				if !slices.Equal(split[i], wsplit[i]) {
					t.Fatalf("graph %d (%s) shared=%v: split row %d = %v, oracle %v",
						gi, g.Name, shared, i, split[i], wsplit[i])
				}
			}
		}
	}
}

// TestTripleCellsMatchOracle: on seeded random chains of 2–60 actors
// (parallel and delayed edges included) and the Table-1 systems that are
// chains under their topological order, the precise DP's cells equal the
// oracle's entry for entry.
func TestTripleCellsMatchOracle(t *testing.T) {
	var graphs []*sdf.Graph
	for _, g := range systems.Table1Systems() {
		q, _ := g.Repetitions()
		if order, err := g.TopologicalSort(q); err == nil && g.IsChain(order) {
			graphs = append(graphs, g)
		}
	}
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for s := int64(0); s < seeds; s++ {
		rng := rand.New(rand.NewSource(s))
		graphs = append(graphs, randsdf.Graph(rng, randsdf.Config{
			Actors: 2 + int(s%59), Window: 1, EdgeProb: 0.3, DelayProb: 0.3,
		}))
	}
	chains := 0
	for gi, g := range graphs {
		q, err := g.Repetitions()
		if err != nil {
			t.Fatalf("graph %d (%s): %v", gi, g.Name, err)
		}
		order, err := g.TopologicalSort(q)
		if err != nil {
			t.Fatalf("graph %d (%s): %v", gi, g.Name, err)
		}
		if !g.IsChain(order) {
			continue
		}
		chains++
		c, err := newChain(g, q, order)
		if err != nil {
			t.Fatalf("graph %d (%s): %v", gi, g.Name, err)
		}
		got, want := c.tripleCells(), newOracleChain(c).oracleTripleCells()
		for i := range want {
			for j := i; j < len(want); j++ {
				if !slices.Equal(got[i][j], want[i][j]) {
					t.Fatalf("graph %d (%s): cell [%d..%d] = %v, oracle %v", gi, g.Name, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	if chains < len(graphs)/2 {
		t.Fatalf("only %d of %d corpus graphs are chains", chains, len(graphs))
	}
}

// TestTotalCostOverflow: every edge's TNSE + delay fits in int64 but their
// sum does not, which unchecked DP cells would wrap.
func TestTotalCostOverflow(t *testing.T) {
	g := sdf.New("wide")
	a := g.AddActor("A")
	b := g.AddActor("B")
	c := g.AddActor("C")
	const big = int64(1) << 61
	g.AddEdge(a, b, big, big, big)
	g.AddEdge(b, c, big, big, big)
	q, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	// Each edge alone is fine.
	g1 := sdf.New("one")
	a1 := g1.AddActor("A")
	b1 := g1.AddActor("B")
	g1.AddEdge(a1, b1, big, big, big)
	q1, _ := g1.Repetitions()
	for name, dp := range map[string]func(*sdf.Graph, sdf.Repetitions, []sdf.ActorID) (*Result, error){
		"DPPO": DPPO, "SDPPO": SDPPO, "ChainSDPPO": ChainSDPPO,
	} {
		if _, err := dp(g, q, []sdf.ActorID{a, b, c}); !errors.Is(err, num.ErrOverflow) {
			t.Errorf("%s error = %v, want ErrOverflow", name, err)
		}
		if _, err := dp(g1, q1, []sdf.ActorID{a1, b1}); err != nil {
			t.Errorf("%s on a single edge: %v", name, err)
		}
	}
}
