package apgan

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/num"
	"repro/internal/randsdf"
	"repro/internal/sched"
	"repro/internal/sdf"
	"repro/internal/systems"
)

func chainGraph(t testing.TB, rates [][2]int64) (*sdf.Graph, sdf.Repetitions) {
	t.Helper()
	g := sdf.New("chain")
	n := len(rates) + 1
	ids := make([]sdf.ActorID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddActor(string(rune('A' + i)))
	}
	for i, r := range rates {
		g.AddEdge(ids[i], ids[i+1], r[0], r[1], 0)
	}
	q, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	return g, q
}

func TestRunChainValidSchedule(t *testing.T) {
	g, q := chainGraph(t, [][2]int64{{2, 1}, {1, 3}})
	res, err := Run(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(q); err != nil {
		t.Fatalf("schedule %s invalid: %v", res.Schedule, err)
	}
	if !res.Schedule.IsSingleAppearance() {
		t.Error("APGAN schedule is not SAS")
	}
	if len(res.Order) != 3 {
		t.Fatalf("order = %v", res.Order)
	}
	// Order must be a topological sort.
	order, err := g.TopologicalSort(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if res.Order[i] != order[i] {
			t.Errorf("order = %v, want topological %v", res.Order, order)
			break
		}
	}
}

// TestMaxGCDFirst verifies the clustering priority: adjacent pair with
// highest repetition gcd is merged first, nesting it innermost.
func TestMaxGCDFirst(t *testing.T) {
	// A -(1,2)-> B -(6,1)-> C: q = (2, 1, 6). gcd(A,B) = 1, gcd(B,C) = 1...
	// Use q designed so one pair has clearly larger gcd:
	// A -(4,1)-> B -(1,2)-> C gives q = (1, 4, 2): gcd(A,B) = 1, gcd(B,C)=2.
	g := sdf.New("gcd")
	a := g.AddActor("A")
	b := g.AddActor("B")
	c := g.AddActor("C")
	g.AddEdge(a, b, 4, 1, 0)
	g.AddEdge(b, c, 1, 2, 0)
	q, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	if q[a] != 1 || q[b] != 4 || q[c] != 2 {
		t.Fatalf("q = %v", q)
	}
	res, err := Run(g, q)
	if err != nil {
		t.Fatal(err)
	}
	// (B,C) with gcd 2 merges first, so the root pairs A with (BC).
	if res.Root.IsLeaf() || !res.Root.Left.IsLeaf() || res.Root.Left.Actor != a {
		t.Errorf("hierarchy root should be (A, (B C)); schedule %s", res.Schedule)
	}
	inner := res.Root.Right
	if inner.IsLeaf() || inner.Left.Actor != b || inner.Right.Actor != c {
		t.Errorf("inner cluster should be (B C); schedule %s", res.Schedule)
	}
	if inner.Rep != 2 {
		t.Errorf("inner rep = %d, want 2", inner.Rep)
	}
	// Schedule: A (2 (2B) C).
	if got := res.Schedule.String(); got != "(A(2(2B)C))" {
		t.Errorf("schedule = %q, want (A(2(2B)C))", got)
	}
}

// TestCycleAvoidance: clustering B with C first would put a path through D
// into a cycle; APGAN must detect and avoid it.
func TestCycleAvoidance(t *testing.T) {
	// Diamond: A -> B -> D, A -> C -> D, all rates chosen so B,D have a big
	// gcd but B-D clustering via edge B->D is tested against path B->?->D.
	// Use: A->B(1,1), B->D(1,1), A->C(1,1), C->D(1,1): q all 1. Any merge is
	// gcd 1; ensure result is still a valid SAS (cycle checks must fire for
	// some candidate orders).
	g := sdf.New("diamond")
	a := g.AddActor("A")
	b := g.AddActor("B")
	c := g.AddActor("C")
	d := g.AddActor("D")
	g.AddEdge(a, b, 1, 1, 0)
	g.AddEdge(b, d, 1, 1, 0)
	g.AddEdge(a, c, 1, 1, 0)
	g.AddEdge(c, d, 1, 1, 0)
	q, _ := g.Repetitions()
	res, err := Run(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(q); err != nil {
		t.Fatalf("schedule %s invalid: %v", res.Schedule, err)
	}
}

func TestDisconnectedComponents(t *testing.T) {
	g := sdf.New("two")
	a := g.AddActor("A")
	b := g.AddActor("B")
	c := g.AddActor("C")
	d := g.AddActor("D")
	g.AddEdge(a, b, 2, 3, 0)
	g.AddEdge(c, d, 1, 1, 0)
	q, _ := g.Repetitions()
	res, err := Run(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(q); err != nil {
		t.Fatalf("schedule %s invalid: %v", res.Schedule, err)
	}
	if len(res.Order) != 4 {
		t.Errorf("order = %v", res.Order)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	g := sdf.New("empty")
	q := sdf.Repetitions{}
	if _, err := Run(g, q); err != nil {
		t.Errorf("empty graph: %v", err)
	}
	g2 := sdf.New("one")
	g2.AddActor("A")
	q2, _ := g2.Repetitions()
	res, err := Run(g2, q2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.String() != "A" {
		t.Errorf("schedule = %q", res.Schedule)
	}
}

func TestRandomGraphsAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		g, q := randomDAG(t, rng, 8)
		res, err := Run(g, q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.Schedule.Validate(q); err != nil {
			t.Fatalf("trial %d: schedule %s invalid: %v", trial, res.Schedule, err)
		}
		flat := sched.FlatSAS(g, q, res.Order)
		if err := flat.Validate(q); err != nil {
			t.Fatalf("trial %d: lexical order %v not a valid topological order: %v",
				trial, res.Order, err)
		}
	}
}

// randomDAG builds a consistent random acyclic graph by choosing a target
// repetitions vector first.
func randomDAG(t testing.TB, rng *rand.Rand, n int) (*sdf.Graph, sdf.Repetitions) {
	t.Helper()
	g := sdf.New("rand")
	reps := make([]int64, n)
	for i := 0; i < n; i++ {
		g.AddActor(string(rune('A' + i)))
		reps[i] = []int64{1, 2, 3, 4, 6, 8}[rng.Intn(6)]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				gg := num.GCD(reps[i], reps[j])
				g.AddEdge(sdf.ActorID(i), sdf.ActorID(j), reps[j]/gg, reps[i]/gg, 0)
			}
		}
	}
	q, err := g.Repetitions()
	if err != nil {
		t.Fatalf("random graph inconsistent: %v", err)
	}
	return g, q
}

func TestDelayEdgeReversedDoesNotBreakOrder(t *testing.T) {
	// B -> A carries enough delay to be non-precedence; A -> B is the real
	// direction. APGAN must schedule A before B.
	g := sdf.New("back")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(a, b, 1, 1, 0)
	g.AddEdge(b, a, 1, 1, 1) // del = TNSE = 1: not a precedence edge
	q, _ := g.Repetitions()
	res, err := Run(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Order[0] != a || res.Order[1] != b {
		t.Errorf("order = %v, want [A B]", res.Order)
	}
	if err := res.Schedule.Validate(q); err != nil {
		t.Errorf("schedule %s invalid: %v", res.Schedule, err)
	}
}

// TestSatrecScheduleStructure checks that APGAN on the satellite receiver
// produces the loop structure the paper quotes in Sec. 11.1.3:
// (24(11(4A)B)CGHI(11(4D)E)FKLM 10(NSJTUP))(QRV 240W) — in particular the
// nested (11(4A)B) and (11(4D)E) front-end loops, the 10(...) matched
// filter loop and the (240W) back end.
func TestSatrecScheduleStructure(t *testing.T) {
	g := systems.SatelliteReceiver()
	q, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(q); err != nil {
		t.Fatalf("schedule %s invalid: %v", res.Schedule, err)
	}
	text := res.Schedule.String()
	for _, want := range []string{"(11(4A)B)", "(11(4D)E)", "(240W)"} {
		if !strings.Contains(text, want) {
			t.Errorf("APGAN schedule %q missing the paper's %q structure", text, want)
		}
	}
	if !strings.Contains(text, "(24") {
		t.Errorf("APGAN schedule %q missing the 24x front-end loop", text)
	}
}

// TestAPGANOptimalOnUniformFilterbanks tests the provable-optimality claim
// quoted in Sec. 7: "for a broad subclass of SDF systems, APGAN has been
// shown to construct SAS that provably minimize the non-shared buffer memory
// metric over all SAS". The 1/2-1/2 filterbanks fall in that subclass; the
// APGAN schedule post-optimized with DPPO must hit the BMLB exactly.
func TestAPGANOptimalOnUniformFilterbanks(t *testing.T) {
	for depth := 1; depth <= 4; depth++ {
		g := systems.TwoSidedFilterbank(depth, systems.Ratio12)
		q, err := g.Repetitions()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(g, q)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := res.Schedule.BufMem()
		if err != nil {
			t.Fatal(err)
		}
		bmlb, err := g.BMLB()
		if err != nil {
			t.Fatal(err)
		}
		if bm != bmlb {
			t.Errorf("qmf12_%dd: APGAN bufmem %d != BMLB %d", depth, bm, bmlb)
		}
	}
}

// mapRun is Run with the merge loop APGAN had before it moved to slices:
// every merge rebuilds a map of candidates over all edges, sorts them,
// rebuilds a map-of-maps cluster digraph and runs map-backed DFSs. It is
// the oracle Run must match exactly (order, schedule, hierarchy, error
// text).
func mapRun(g *sdf.Graph, q sdf.Repetitions) (*Result, error) {
	n := g.NumActors()
	if n == 0 {
		return &Result{Schedule: &sched.Schedule{Graph: g}}, nil
	}
	clusterOf := make([]int, n)
	clusters := make([]*Hierarchy, n)
	for a := 0; a < n; a++ {
		clusterOf[a] = a
		clusters[a] = &Hierarchy{Actor: sdf.ActorID(a), Rep: q[a]}
	}
	for alive := n; alive > 1; alive-- {
		pair, ok, err := mapPickPair(g, q, clusterOf, clusters)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, ErrNotClusterable
		}
		l, r := clusters[pair.src], clusters[pair.dst]
		clusters[pair.src] = &Hierarchy{Left: l, Right: r, Rep: num.GCD(l.Rep, r.Rep)}
		clusters[pair.dst] = nil
		for a := range clusterOf {
			if clusterOf[a] == pair.dst {
				clusterOf[a] = pair.src
			}
		}
	}
	var root *Hierarchy
	for _, c := range clusters {
		if c != nil {
			root = c
			break
		}
	}
	res := &Result{Root: root}
	res.Order = appendOrder(nil, root)
	res.Schedule = &sched.Schedule{Graph: g, Body: []*sched.Node{buildNode(root, q, 1)}}
	return res, nil
}

func mapPickPair(g *sdf.Graph, q sdf.Repetitions, clusterOf []int, clusters []*Hierarchy) (candidate, bool, error) {
	type key struct{ a, b int }
	agg := make(map[key]*candidate)
	for _, e := range g.Edges() {
		cs, cd := clusterOf[e.Src], clusterOf[e.Dst]
		if cs == cd {
			continue
		}
		prec := sdf.PrecedenceEdge(g, q, e.ID)
		k := key{cs, cd}
		if cd < cs {
			k = key{cd, cs}
		}
		c := agg[k]
		if c == nil {
			c = &candidate{src: cs, dst: cd, gcd: num.GCD(clusters[cs].Rep, clusters[cd].Rep)}
			agg[k] = c
		}
		if prec && !c.hasPrec {
			c.src, c.dst = cs, cd
			c.hasPrec = true
		}
		t, err := sdf.TNSE(g, q, e.ID)
		if err != nil {
			return candidate{}, false, err
		}
		if c.tnse, err = num.CheckedAdd(c.tnse, t); err != nil {
			return candidate{}, false, fmt.Errorf("apgan: aggregate traffic of pair (%d,%d) overflows: %w",
				c.src, c.dst, num.ErrOverflow)
		}
	}
	cands := make([]*candidate, 0, len(agg))
	for _, c := range agg {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.gcd != b.gcd {
			return a.gcd > b.gcd
		}
		if a.tnse != b.tnse {
			return a.tnse > b.tnse
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.dst < b.dst
	})
	adj := make(map[int]map[int]bool)
	for _, e := range g.Edges() {
		cs, cd := clusterOf[e.Src], clusterOf[e.Dst]
		if cs == cd || !sdf.PrecedenceEdge(g, q, e.ID) {
			continue
		}
		if adj[cs] == nil {
			adj[cs] = make(map[int]bool)
		}
		adj[cs][cd] = true
	}
	for _, c := range cands {
		if !mapPath(adj, c.src, c.dst) && !mapPath(adj, c.dst, c.src) {
			return *c, true, nil
		}
	}
	if comp := mapComponents(adj, clusters); len(comp) > 1 {
		return candidate{src: comp[0], dst: comp[1]}, true, nil
	}
	return candidate{}, false, nil
}

// mapPath reports whether dst is reachable from src without the direct
// src->dst edge.
func mapPath(adj map[int]map[int]bool, src, dst int) bool {
	seen := map[int]bool{src: true}
	stack := []int{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := range adj[u] {
			if u == src && v == dst {
				continue
			}
			if v == dst {
				return true
			}
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}

// mapComponents returns one representative live cluster per weakly
// connected component, in ascending id order.
func mapComponents(adj map[int]map[int]bool, clusters []*Hierarchy) []int {
	und := make(map[int][]int)
	for u, m := range adj {
		for v := range m {
			und[u] = append(und[u], v)
			und[v] = append(und[v], u)
		}
	}
	seen := make(map[int]bool)
	var reps []int
	for id, c := range clusters {
		if c == nil || seen[id] {
			continue
		}
		reps = append(reps, id)
		stack := []int{id}
		seen[id] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range und[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return reps
}

// sameHierarchy reports whether two cluster hierarchies have the same shape,
// actors and reps.
func sameHierarchy(a, b *Hierarchy) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.IsLeaf() != b.IsLeaf() || a.Rep != b.Rep {
		return false
	}
	if a.IsLeaf() {
		return a.Actor == b.Actor
	}
	return sameHierarchy(a.Left, b.Left) && sameHierarchy(a.Right, b.Right)
}

// checkAgainstOracle runs Run and mapRun on (g, q) and fails on any
// difference. It returns the oracle's error.
func checkAgainstOracle(t testing.TB, g *sdf.Graph, q sdf.Repetitions) error {
	t.Helper()
	got, gotErr := Run(g, q)
	want, wantErr := mapRun(g, q)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, oracle %v", g.Name, gotErr, wantErr)
	}
	if wantErr != nil {
		if errors.Is(wantErr, num.ErrOverflow) != errors.Is(gotErr, num.ErrOverflow) ||
			errors.Is(wantErr, ErrNotClusterable) != errors.Is(gotErr, ErrNotClusterable) {
			t.Fatalf("%s: error %v wraps differently from the oracle's", g.Name, gotErr)
		}
		return wantErr
	}
	if !slices.Equal(got.Order, want.Order) {
		t.Fatalf("%s: order %v, oracle %v", g.Name, got.Order, want.Order)
	}
	if gs, ws := got.Schedule.String(), want.Schedule.String(); gs != ws {
		t.Fatalf("%s: schedule %s, oracle %s", g.Name, gs, ws)
	}
	if !sameHierarchy(got.Root, want.Root) {
		t.Fatalf("%s: hierarchy differs from the oracle's", g.Name)
	}
	return nil
}

// unionGraph returns the disjoint union of a and b, b's actors after a's.
func unionGraph(a, b *sdf.Graph) *sdf.Graph {
	u := sdf.New(a.Name + "+" + b.Name)
	for _, src := range []*sdf.Graph{a, b} {
		base := sdf.ActorID(u.NumActors())
		for _, ac := range src.Actors() {
			u.AddActor(fmt.Sprintf("g%d_%s", base, ac.Name))
		}
		for _, e := range src.Edges() {
			u.AddEdge(base+e.Src, base+e.Dst, e.Prod, e.Cons, e.Delay)
		}
	}
	return u
}

// oracleGraphs is the population TestRunMatchesMapOracle compares on:
// seeded random graphs over the shapes that reach every branch of the
// merge loop.
func oracleGraphs(rng *rand.Rand) []*sdf.Graph {
	var gs []*sdf.Graph
	// Chain-like, dense and delayed graphs: small windows make many
	// parallel candidates; delays make delay-saturated, non-precedence
	// pairs whose orientation comes from a later precedence edge.
	for i := 0; i < 3000; i++ {
		cfg := randsdf.Config{Actors: 2 + rng.Intn(30)}
		switch i % 4 {
		case 1:
			cfg.Window = 1 + rng.Intn(3)
		case 2:
			cfg.EdgeProb = 0.05 + 0.6*rng.Float64()
		case 3:
			cfg.Window = 1 + rng.Intn(4)
			cfg.EdgeProb = 0.3 + 0.6*rng.Float64()
		}
		if i%3 != 0 {
			cfg.DelayProb = 0.1 + 0.8*rng.Float64()
		}
		gs = append(gs, randsdf.Graph(rng, cfg))
	}
	// Disjoint unions: the components fallback.
	for i := 0; i < 150; i++ {
		a := randsdf.Graph(rng, randsdf.Config{Actors: 1 + rng.Intn(10), DelayProb: 0.3 * rng.Float64()})
		b := randsdf.Graph(rng, randsdf.Config{Actors: 1 + rng.Intn(10), DelayProb: 0.3 * rng.Float64()})
		gs = append(gs, unionGraph(a, b))
	}
	// Back edges with little delay: precedence cycles, where a pair can
	// carry precedence edges both ways and its first one orients it, and
	// the clustering may get stuck.
	for i := 0; i < 300; i++ {
		g := randsdf.Graph(rng, randsdf.Config{Actors: 2 + rng.Intn(12), Window: 1 + rng.Intn(4)})
		q, _ := g.Repetitions()
		for k := 1 + rng.Intn(3); k > 0; k-- {
			lo := rng.Intn(g.NumActors())
			hi := rng.Intn(g.NumActors())
			if lo == hi {
				continue
			}
			gg := num.GCD(q[lo], q[hi])
			prod, cons := q[lo]/gg, q[hi]/gg
			g.AddEdge(sdf.ActorID(hi), sdf.ActorID(lo), prod, cons, prod*rng.Int63n(q[hi]+1))
		}
		gs = append(gs, g)
	}
	// Huge, nearly coprime repetition counts: TNSE and pair-aggregate
	// overflows, some only after clusters merge.
	big := []int64{1, 2, 3, 1 << 30, 3 << 29, 1220703125, 1 << 40, 1162261467, 1 << 61}
	for i := 0; i < 300; i++ {
		gs = append(gs, randsdf.Graph(rng, randsdf.Config{
			Actors: 2 + rng.Intn(8), Reps: big, Window: 1 + rng.Intn(3), DelayProb: 0.2}))
	}
	return gs
}

// overflowGraphs are hand-built traffic overflows: parallel edges whose
// summed traffic overflows, with the pair's orientation flipped by a later
// precedence edge, on an edge against the pair's orientation, or before the
// precedence edge that flips it; an overflow that only appears once two
// clusters have merged; a single edge whose TNSE overflows (q = (2, 2^61,
// 1)); and both kinds in one graph, in either edge order, where the earlier
// edge's error must win.
func overflowGraphs() []*sdf.Graph {
	const r = 1 << 61
	addParallel := func(g *sdf.Graph) {
		a, b := g.AddActor("P"), g.AddActor("Q")
		g.AddEdge(b, a, r, r, 2*r) // delay-saturated: not precedence
		for i := 0; i < 4; i++ {
			g.AddEdge(a, b, r, r, 0)
		}
	}
	against := sdf.New("against")
	a, b := against.AddActor("A"), against.AddActor("B")
	for i := 0; i < 3; i++ {
		against.AddEdge(a, b, r, r, 0)
	}
	against.AddEdge(b, a, r, r, 2*r) // overflows, running B->A
	before := sdf.New("before")
	a, b = before.AddActor("A"), before.AddActor("B")
	for i := 0; i < 4; i++ {
		before.AddEdge(b, a, r, r, 2*r) // the 4th overflows, oriented B->A
	}
	before.AddEdge(a, b, r, r, 0) // flips the pair to A->B
	addTNSE := func(g *sdf.Graph) {
		a, b, c := g.AddActor("A"), g.AddActor("B"), g.AddActor("C")
		g.AddEdge(a, c, 1, 2, 0)
		g.AddEdge(a, b, 1<<62, 4, 0)
	}
	parallel := sdf.New("parallel")
	addParallel(parallel)
	tnse := sdf.New("tnse")
	addTNSE(tnse)
	pairFirst := sdf.New("pair-first")
	addParallel(pairFirst)
	addTNSE(pairFirst)
	tnseFirst := sdf.New("tnse-first")
	addTNSE(tnseFirst)
	addParallel(tnseFirst)
	merged := sdf.New("merged")
	a, b = merged.AddActor("A"), merged.AddActor("B")
	c := merged.AddActor("C")
	merged.AddEdge(a, b, 1, 1, 0) // gcd 2: merges first
	merged.AddEdge(a, c, 5<<59, 5<<60, 0)
	merged.AddEdge(b, c, 5<<59, 5<<60, 0)
	return []*sdf.Graph{parallel, against, before, tnse, pairFirst, tnseFirst, merged}
}

// TestRunMatchesMapOracle: the slice-based merge loop produces exactly the
// map-based loop's order, schedule, hierarchy and error on the paper's
// systems and on thousands of seeded graphs.
func TestRunMatchesMapOracle(t *testing.T) {
	gs := append(systems.Table1Systems(), systems.CDDAT(), systems.EchoCanceller(), systems.Homogeneous(4, 5))
	gs = append(gs, overflowGraphs()...)
	gs = append(gs, oracleGraphs(rand.New(rand.NewSource(35)))...)
	for _, g := range overflowGraphs() {
		q, err := g.Repetitions()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if _, err := Run(g, q); !errors.Is(err, num.ErrOverflow) {
			t.Errorf("%s: got %v, want a traffic overflow", g.Name, err)
		}
	}
	var ran, tnseOverflows, pairOverflows, stuck, fallbacks int
	for _, g := range gs {
		q, err := g.Repetitions()
		if err != nil {
			continue
		}
		ran++
		switch err := checkAgainstOracle(t, g, q); {
		case err == nil:
		case strings.Contains(err.Error(), "TNSE"):
			tnseOverflows++
		case strings.Contains(err.Error(), "aggregate traffic"):
			pairOverflows++
		case errors.Is(err, ErrNotClusterable):
			stuck++
		}
		if strings.Contains(g.Name, "+") {
			fallbacks++
		}
	}
	t.Logf("%d graphs: %d TNSE overflows, %d pair overflows, %d not clusterable, %d disjoint unions",
		ran, tnseOverflows, pairOverflows, stuck, fallbacks)
	if ran < 3000 || tnseOverflows == 0 || pairOverflows == 0 || stuck == 0 || fallbacks == 0 {
		t.Errorf("population misses a branch: %d graphs, %d TNSE overflows, %d pair overflows, %d not clusterable, %d unions",
			ran, tnseOverflows, pairOverflows, stuck, fallbacks)
	}
}

// fuzzDecodeGraph reads a graph from bytes: the actor count, then five
// bytes per edge (source, sink, production, consumption, delay). A rate
// byte of 0xf0 or more is a power of two up to 2^61, so traffic overflows
// are reachable; the delay byte counts in units of the production rate.
func fuzzDecodeGraph(data []byte) *sdf.Graph {
	g := sdf.New("fuzz")
	if len(data) == 0 {
		return g
	}
	n := 1 + int(data[0])%16
	for i := 0; i < n; i++ {
		g.AddActor(fmt.Sprintf("a%d", i))
	}
	rate := func(b byte) int64 {
		if b >= 0xf0 {
			return 1 << (46 + int(b-0xf0))
		}
		return 1 + int64(b%8)
	}
	for data = data[1:]; len(data) >= 5 && g.NumEdges() < 64; data = data[5:] {
		prod := rate(data[2])
		delay, err := num.CheckedMul(prod, int64(data[4]%4))
		if err != nil {
			delay = 0
		}
		g.AddEdge(sdf.ActorID(int(data[0])%n), sdf.ActorID(int(data[1])%n), prod, rate(data[3]), delay)
	}
	return g
}

// FuzzAPGAN: on any consistent graph decoded from bytes, Run never panics
// and matches the map-based oracle exactly.
func FuzzAPGAN(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 2, 1, 0})
	f.Add([]byte{4, 0, 1, 1, 1, 0, 2, 3, 1, 1, 0})                            // two components
	f.Add([]byte{2, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1})                            // back edge with delay
	f.Add([]byte{3, 0, 1, 0xff, 0xff, 0, 0, 1, 0xff, 0xff, 0, 0, 2, 1, 1, 0}) // big traffic
	f.Add([]byte{3, 0, 1, 1, 1, 0, 1, 2, 1, 1, 0, 2, 0, 1, 1, 0})             // cycle
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzDecodeGraph(data)
		q, err := g.Repetitions()
		if err != nil {
			return
		}
		checkAgainstOracle(t, g, q)
	})
}

// TestRunAllocsLinear: Run allocates O(n) times — the merge loop reuses its
// slices, so the count tracks the hierarchy and schedule nodes it returns,
// not the number of merges times the number of edges.
func TestRunAllocsLinear(t *testing.T) {
	chain := randsdf.Graph(rand.New(rand.NewSource(1)), randsdf.Config{Actors: 1000, Window: 1, EdgeProb: 0.01})
	for _, g := range []*sdf.Graph{systems.TwoSidedFilterbank(5, systems.Ratio23), chain} {
		q, err := g.Repetitions()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Run(g, q); err != nil {
				t.Fatal(err)
			}
		})
		n := float64(g.NumActors())
		t.Logf("%s: %d actors, %.0f allocations (%.2f per actor)", g.Name, g.NumActors(), allocs, allocs/n)
		if allocs > 4*n {
			t.Errorf("%s: %.0f allocations for %d actors, want <= %.0f", g.Name, allocs, g.NumActors(), 4*n)
		}
	}
}
