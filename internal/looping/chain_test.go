package looping

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sched"
	"repro/internal/sdf"
)

func mustDPPO(t testing.TB, g *sdf.Graph, q sdf.Repetitions, order []sdf.ActorID) *Result {
	t.Helper()
	r, err := DPPO(g, q, order)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustSDPPO(t testing.TB, g *sdf.Graph, q sdf.Repetitions, order []sdf.ActorID) *Result {
	t.Helper()
	r, err := SDPPO(g, q, order)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// buildChainGraph makes a chain x0 -> x1 -> ... with the given (prod, cons)
// rate pairs per edge.
func buildChainGraph(t testing.TB, name string, rates [][2]int64) (*sdf.Graph, sdf.Repetitions, []sdf.ActorID) {
	t.Helper()
	g := sdf.New(name)
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
		t.Fatalf("Repetitions: %v", err)
	}
	return g, q, ids
}

func TestDPPOKnownChain(t *testing.T) {
	// A -(2,1)-> B -(1,3)-> C, q = (3,6,2). Order-optimal nesting is
	// (3A(2B))(2C) with bufmem 2+6 = 8 (delayless variant of the paper's
	// Sec. 4 example).
	g, q, ids := buildChainGraph(t, "fig1", [][2]int64{{2, 1}, {1, 3}})
	res := mustDPPO(t, g, q, ids)
	if res.Cost != 8 {
		t.Errorf("DPPO cost = %d, want 8", res.Cost)
	}
	if err := res.Schedule.Validate(q); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	bm, err := res.Schedule.BufMem()
	if err != nil {
		t.Fatal(err)
	}
	if bm != res.Cost {
		t.Errorf("simulated bufmem %d != DP cost %d (schedule %s)", bm, res.Cost, res.Schedule)
	}
	if !res.Schedule.IsSingleAppearance() {
		t.Error("DPPO schedule is not single appearance")
	}
}

// enumerateFactored returns the simulated bufmem of every fully-factored
// binary parenthesization of the order — the brute-force reference for
// order-optimality.
func enumerateFactored(t *testing.T, g *sdf.Graph, q sdf.Repetitions, order []sdf.ActorID) []int64 {
	t.Helper()
	c, err := newChain(g, q, order)
	if err != nil {
		t.Fatal(err)
	}
	var build func(i, j int, outer int64) []*sched.Node
	build = func(i, j int, outer int64) []*sched.Node {
		if i == j {
			return []*sched.Node{sched.Leaf(q[order[i]]/outer, order[i])}
		}
		var out []*sched.Node
		f := c.gcd[i][j] / outer
		for k := i; k < j; k++ {
			ls := build(i, k, outer*f)
			rs := build(k+1, j, outer*f)
			for _, l := range ls {
				for _, r := range rs {
					out = append(out, sched.Loop(f, l.Clone(), r.Clone()))
				}
			}
		}
		return out
	}
	var costs []int64
	for _, root := range build(0, len(order)-1, 1) {
		s := &sched.Schedule{Graph: g, Body: []*sched.Node{root}}
		if err := s.Validate(q); err != nil {
			t.Fatalf("enumerated schedule %s invalid: %v", s, err)
		}
		bm, err := s.BufMem()
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, bm)
	}
	return costs
}

func TestDPPOOrderOptimalBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(3) // 3..5 actors
		rates := make([][2]int64, n-1)
		for i := range rates {
			rates[i] = [2]int64{1 + int64(rng.Intn(4)), 1 + int64(rng.Intn(4))}
		}
		g, q, ids := buildChainGraph(t, "rand", rates)
		res := mustDPPO(t, g, q, ids)
		costs := enumerateFactored(t, g, q, ids)
		best := costs[0]
		for _, c := range costs {
			if c < best {
				best = c
			}
		}
		if res.Cost != best {
			t.Errorf("trial %d rates %v: DPPO cost %d, brute force %d", trial, rates, res.Cost, best)
		}
		bm, _ := res.Schedule.BufMem()
		if bm != res.Cost {
			t.Errorf("trial %d: schedule bufmem %d != cost %d", trial, bm, res.Cost)
		}
	}
}

func TestDPPOSingleActor(t *testing.T) {
	g := sdf.New("one")
	a := g.AddActor("A")
	q, _ := g.Repetitions()
	res := mustDPPO(t, g, q, []sdf.ActorID{a})
	if res.Cost != 0 {
		t.Errorf("cost = %d", res.Cost)
	}
	if res.Schedule.String() != "A" {
		t.Errorf("schedule = %q", res.Schedule)
	}
}

func TestSDPPOFactoringHeuristic(t *testing.T) {
	// Two unconnected actors with equal repetition counts: factoring 2(AB)
	// would merge their lifetimes; the heuristic must keep (2A)(2B).
	g := sdf.New("nofactor")
	a := g.AddActor("A")
	b := g.AddActor("B")
	x := g.AddActor("X")
	y := g.AddActor("Y")
	g.AddEdge(x, a, 1, 1, 0) // feeders so A and B have buffers at all
	g.AddEdge(y, b, 1, 1, 0)
	q := sdf.Repetitions{2, 2, 2, 2}
	order := []sdf.ActorID{x, a, y, b}
	res := mustSDPPO(t, g, q, order)
	if err := res.Schedule.Validate(q); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// The split between (X A) and (Y B) has no crossing edges, so the top
	// level must not be factored: expect "...)(..." with both halves looped
	// internally, i.e. the string contains "(2X(2A" style nesting... the
	// robust check: top-level loop factor is 1.
	root := res.Schedule.Body[0]
	if root.Count != 1 {
		t.Errorf("top loop factored to %d despite no crossing edges: %s", root.Count, res.Schedule)
	}
	// DPPO (non-shared) by contrast factors fully.
	res2 := mustDPPO(t, g, q, order)
	if res2.Schedule.Body[0].Count != 2 {
		t.Errorf("DPPO should factor the top loop: %s", res2.Schedule)
	}
}

func TestSDPPOChainEstimate(t *testing.T) {
	// Chain A-(1,2)->B-(1,2)->C: q=(4,2,1). All buffers share via overlay.
	g, q, ids := buildChainGraph(t, "sh", [][2]int64{{1, 2}, {1, 2}})
	res := mustSDPPO(t, g, q, ids)
	if err := res.Schedule.Validate(q); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// Estimate: window [0,2], g=1. Splits: k=0: max(0, b[1][2]) + TNSE(AB)
	// = max(0, 2) + 4 = 6; k=1: max(b[0][1],0) + TNSE(BC)/1 = 4/? window
	// [0,1] g=2: 4/2=2 -> max(2,0)+2 = 4. So cost 4.
	if res.Cost != 4 {
		t.Errorf("SDPPO cost = %d, want 4 (schedule %s)", res.Cost, res.Schedule)
	}
}

func TestChainSDPPONotChain(t *testing.T) {
	g := sdf.New("tri")
	a := g.AddActor("A")
	b := g.AddActor("B")
	c := g.AddActor("C")
	g.AddEdge(a, b, 1, 1, 0)
	g.AddEdge(a, c, 1, 1, 0)
	g.AddEdge(b, c, 1, 1, 0)
	q, _ := g.Repetitions()
	if _, err := ChainSDPPO(g, q, []sdf.ActorID{a, b, c}); err != ErrNotChain {
		t.Errorf("err = %v, want ErrNotChain", err)
	}
}

func TestChainSDPPOValidAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(4)
		rates := make([][2]int64, n-1)
		for i := range rates {
			rates[i] = [2]int64{1 + int64(rng.Intn(5)), 1 + int64(rng.Intn(5))}
		}
		g, q, ids := buildChainGraph(t, "pc", rates)
		precise, err := ChainSDPPO(g, q, ids)
		if err != nil {
			t.Fatal(err)
		}
		if err := precise.Schedule.Validate(q); err != nil {
			t.Fatalf("trial %d: invalid schedule %s: %v", trial, precise.Schedule, err)
		}
		heur := mustSDPPO(t, g, q, ids)
		// The triple accounting never charges more than the EQ 5 worst-case
		// assumption, so the precise optimum is at most the heuristic's.
		if precise.Cost > heur.Cost {
			t.Errorf("trial %d rates %v: precise cost %d > heuristic %d",
				trial, rates, precise.Cost, heur.Cost)
		}
	}
}

func TestCombineTriplesCaseI(t *testing.T) {
	l := Triple{Left: 3, Cost: 10, Right: 7}
	r := Triple{Left: 4, Cost: 9, Right: 2}
	got := combineTriples(l, r, 5, 1, 1)
	// t1 = l1 = 3; t2 = max(10, 7+5, 4+5, 9) = 12; t3 = r3 = 2.
	want := Triple{Left: 3, Cost: 12, Right: 2}
	if got != want {
		t.Errorf("case I: got %+v, want %+v", got, want)
	}
}

func TestCombineTriplesCaseII(t *testing.T) {
	l := Triple{Left: 3, Cost: 10, Right: 7}
	r := Triple{Left: 4, Cost: 9, Right: 2}
	got := combineTriples(l, r, 5, 2, 1)
	// t1 = max(3+5, 10) = 10; t2 = max(10+5, 4+5, 9) = 15; t3 = 2.
	want := Triple{Left: 10, Cost: 15, Right: 2}
	if got != want {
		t.Errorf("case II: got %+v, want %+v", got, want)
	}
}

func TestCombineTriplesCaseIII(t *testing.T) {
	l := Triple{Left: 3, Cost: 10, Right: 7}
	r := Triple{Left: 4, Cost: 9, Right: 2}
	got := combineTriples(l, r, 5, 3, 1)
	// t1 = 10+5 = 15; t2 = max(15, 9, 9) = 15; t3 = 2.
	want := Triple{Left: 15, Cost: 15, Right: 2}
	if got != want {
		t.Errorf("case III: got %+v, want %+v", got, want)
	}
}

func TestCombineTriplesMirrored(t *testing.T) {
	l := Triple{Left: 3, Cost: 10, Right: 7}
	r := Triple{Left: 4, Cost: 9, Right: 2}
	// Right side iterated twice: t3 = max(r3+c, r2) = max(7, 9) = 9;
	// mids = {l2, l3+c, r2+c} = {10, 12, 14} -> t2 = 14; t1 = l1 = 3.
	got := combineTriples(l, r, 5, 1, 2)
	want := Triple{Left: 3, Cost: 14, Right: 9}
	if got != want {
		t.Errorf("mirror case: got %+v, want %+v", got, want)
	}
}

func TestCombineTriplesInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		mk := func() Triple {
			c := int64(rng.Intn(20))
			l := int64(rng.Intn(int(c) + 1))
			r := int64(rng.Intn(int(c) + 1))
			return Triple{Left: l, Cost: c, Right: r}
		}
		ratios := []int64{1, 2, 3, 5}
		got := combineTriples(mk(), mk(), int64(rng.Intn(10)),
			ratios[rng.Intn(len(ratios))], ratios[rng.Intn(len(ratios))])
		if got.Left > got.Cost || got.Right > got.Cost {
			t.Fatalf("invariant broken: %+v", got)
		}
	}
}

func TestInsertPareto(t *testing.T) {
	var cell []entry
	cell = insertPareto(cell, entry{t: Triple{5, 10, 5}})
	cell = insertPareto(cell, entry{t: Triple{5, 10, 5}}) // duplicate dominated
	if len(cell) != 1 {
		t.Fatalf("duplicate kept: %d entries", len(cell))
	}
	cell = insertPareto(cell, entry{t: Triple{1, 12, 1}}) // incomparable
	if len(cell) != 2 {
		t.Fatalf("incomparable dropped: %d entries", len(cell))
	}
	cell = insertPareto(cell, entry{t: Triple{1, 9, 1}}) // dominates both
	if len(cell) != 1 || cell[0].t.Cost != 9 {
		t.Fatalf("domination not applied: %+v", cell)
	}
}

func TestInsertParetoBound(t *testing.T) {
	var cell []entry
	for i := 0; i < 3*maxTriples; i++ {
		// All incomparable: increasing cost, decreasing left+right.
		cell = insertPareto(cell, entry{t: Triple{
			Left:  int64(3*maxTriples - i),
			Cost:  int64(100 + i),
			Right: int64(3*maxTriples - i),
		}})
	}
	if len(cell) > maxTriples {
		t.Errorf("frontier grew to %d > %d", len(cell), maxTriples)
	}
}

// TestInsertParetoSumAboveMaxInt64: the frontier trim ranks equal-cost
// triples by Left+Right without wrapping, so a triple whose sum exceeds
// MaxInt64 ranks last and is the one dropped.
func TestInsertParetoSumAboveMaxInt64(t *testing.T) {
	const m = math.MaxInt64/2 + 10
	var cell []entry
	for i := int64(0); i < maxTriples; i++ {
		// Pairwise incomparable (Left rises as Right falls); sums m+maxTriples.
		cell = insertPareto(cell, entry{t: Triple{Left: m + 1 + i, Cost: math.MaxInt64, Right: maxTriples - 1 - i}})
	}
	big := Triple{Left: m, Cost: math.MaxInt64, Right: m} // sum 2m > MaxInt64
	cell = insertPareto(cell, entry{t: big})
	if len(cell) != maxTriples {
		t.Fatalf("frontier holds %d entries, want %d", len(cell), maxTriples)
	}
	for _, e := range cell {
		if e.t == big {
			t.Fatalf("triple with Left+Right above MaxInt64 kept over smaller sums: %+v", cell)
		}
	}
}

func TestDPPOWithDelays(t *testing.T) {
	g := sdf.New("delay")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(a, b, 2, 1, 1)
	q, _ := g.Repetitions()
	res := mustDPPO(t, g, q, []sdf.ActorID{a, b})
	if err := res.Schedule.Validate(q); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	bm, _ := res.Schedule.BufMem()
	// Cost charges TNSE/g + delay = 2/... g = gcd(1,2) = 1, TNSE = 2, +1 = 3.
	if res.Cost != 3 || bm != 3 {
		t.Errorf("cost %d bufmem %d, want 3/3", res.Cost, bm)
	}
}

// TestCombineTriplesAllNineCases exercises every gcd-ratio combination with
// hand-computed expectations (l = (3,10,7), r = (4,9,2), c = 5).
func TestCombineTriplesAllNineCases(t *testing.T) {
	l := Triple{Left: 3, Cost: 10, Right: 7}
	r := Triple{Left: 4, Cost: 9, Right: 2}
	const c = 5
	cases := []struct {
		rL, rR int64
		want   Triple
	}{
		// (1,1): t1=l1; mids={l2, l3+c, r2, r1+c}; t3=r3.
		{1, 1, Triple{3, 12, 2}},
		// (2,1): t1=max(l1+c,l2)=10; mids={l2+c, r2, r1+c}={15,9,9}; t3=2.
		{2, 1, Triple{10, 15, 2}},
		// (>2,1): t1=l2+c=15; mids={15,9,9}; t3=2.
		{3, 1, Triple{15, 15, 2}},
		// (1,2): t1=3; t3=max(r3+c,r2)=9; mids={l2,l3+c,r2+c}={10,12,14}.
		{1, 2, Triple{3, 14, 9}},
		// (1,>2): t1=3; t3=r2+c=14; mids={10,12,14}.
		{1, 3, Triple{3, 14, 14}},
		// (2,2): t1=10; t3=9; mids={l2+c, r2+c}={15,14}.
		{2, 2, Triple{10, 15, 9}},
		// (2,>2): t1=10; t3=14; mids={15,14}.
		{2, 3, Triple{10, 15, 14}},
		// (>2,2): t1=15; t3=9; mids={15,14}.
		{3, 2, Triple{15, 15, 9}},
		// (>2,>2): t1=15; t3=14; mids={15,14}.
		{3, 3, Triple{15, 15, 14}},
	}
	for _, tc := range cases {
		got := combineTriples(l, r, c, tc.rL, tc.rR)
		if got != tc.want {
			t.Errorf("rL=%d rR=%d: got %+v, want %+v", tc.rL, tc.rR, got, tc.want)
		}
	}
}

// TestChainSDPPOAllocationQuality: on random chains, allocating the precise
// DP's schedule should never be much worse than allocating the heuristic's
// (they optimize the same objective; the precise DP models it better).
func TestChainSDPPOAllocationQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	worse := 0
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(4)
		rates := make([][2]int64, n-1)
		for i := range rates {
			rates[i] = [2]int64{1 + int64(rng.Intn(4)), 1 + int64(rng.Intn(4))}
		}
		g, q, ids := buildChainGraph(t, "cq", rates)
		precise, err := ChainSDPPO(g, q, ids)
		if err != nil {
			t.Fatal(err)
		}
		heur := mustSDPPO(t, g, q, ids)
		pa := allocSchedule(t, g, q, precise.Schedule)
		ha := allocSchedule(t, g, q, heur.Schedule)
		if pa > ha {
			worse++
		}
	}
	if worse > 8 {
		t.Errorf("precise DP allocated worse than the heuristic on %d/25 chains", worse)
	}
}
