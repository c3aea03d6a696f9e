// Package looping implements the loop-hierarchy post-optimizations of the
// paper: GDPPO, the dynamic programming post optimization for the non-shared
// buffer model (EQ 2/3); SDPPO, the shared-model heuristic DP (EQ 5) with the
// Sec. 5.1 factoring heuristic; and the precise chain-structured DP with
// (left, cost, right) triples of Sec. 6.
//
// All three take an SDF graph, its repetitions vector and a lexical ordering
// (a topological sort of the precedence graph) and return both a cost
// estimate and a nested single appearance schedule realizing the chosen
// parenthesization.
package looping

import (
	"fmt"
	"slices"

	"repro/internal/num"
	"repro/internal/sched"
	"repro/internal/sdf"
)

// chain precomputes everything the DPs need about a lexical ordering.
type chain struct {
	g     *sdf.Graph
	q     sdf.Repetitions
	order []sdf.ActorID
	pos   []int // pos[actor] = index in order
	// gcd[i][j] = gcd of q over order[i..j].
	gcd [][]int64
	// spans holds every non-self-loop edge by its position span (lo < hi),
	// sorted by hi: the spans ending at j are spans[hiStart[j]:hiStart[j+1]].
	spans   []edgeSpan
	hiStart []int
}

type edgeSpan struct {
	lo, hi int
	tnse   int64
	delay  int64
}

func newChain(g *sdf.Graph, q sdf.Repetitions, order []sdf.ActorID) (*chain, error) {
	n := len(order)
	c := &chain{g: g, q: q, order: order, pos: make([]int, g.NumActors())}
	for i, a := range order {
		c.pos[a] = i
	}
	c.gcd = square[int64](n)
	for i := 0; i < n; i++ {
		g := int64(0)
		for j := i; j < n; j++ {
			g = num.GCD(g, q[order[j]])
			c.gcd[i][j] = g
		}
	}
	for _, e := range g.Edges() {
		lo, hi := c.pos[e.Src], c.pos[e.Dst]
		if lo == hi {
			continue // self loop: no split ever separates it
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		tnse, err := sdf.TNSE(g, q, e.ID)
		if err != nil {
			return nil, err
		}
		c.spans = append(c.spans, edgeSpan{
			lo: lo, hi: hi,
			tnse:  tnse,
			delay: e.Delay,
		})
	}
	// Every split cost, crossing sum and DP cell is bounded by the total
	// TNSE + delay of the spans, so checking it once lets the DPs add
	// unchecked.
	var total int64
	for _, sp := range c.spans {
		w, err := num.CheckedAdd(sp.tnse, sp.delay)
		if err == nil {
			total, err = num.CheckedAdd(total, w)
		}
		if err != nil {
			return nil, fmt.Errorf("looping: total buffer cost of the order overflows: %w", num.ErrOverflow)
		}
	}
	slices.SortStableFunc(c.spans, func(a, b edgeSpan) int { return a.hi - b.hi })
	c.hiStart = make([]int, n+1)
	for _, sp := range c.spans {
		c.hiStart[sp.hi+1]++
	}
	for j := 0; j < n; j++ {
		c.hiStart[j+1] += c.hiStart[j]
	}
	return c, nil
}

// square returns an n×n matrix whose rows share one backing array.
func square[T any](n int) [][]T {
	flat := make([]T, n*n)
	m := make([][]T, n)
	for i := range m {
		m[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return m
}

// crossing returns the summed TNSE and delay of edges crossing the split
// between positions k and k+1 within the window [i..j], plus the number of
// such edges. O(E); used only during schedule reconstruction.
func (c *chain) crossing(i, j, k int) (tnse, delay int64, count int) {
	for _, sp := range c.spans {
		if sp.lo >= i && sp.hi <= j && sp.lo <= k && sp.hi > k {
			tnse += sp.tnse
			delay += sp.delay
			count++
		}
	}
	return
}

// crossings holds the split costs of the windows [i..j] that share a start
// i. The DPs fill their tables row by row, i descending and j ascending,
// which finds every child cell ready; growing j adds the spans ending at j
// to the costs of the splits they cross. A row costs O(n log q + total span
// length), so a full DP costs O(n^3 + n * sum of span lengths), with no
// per-split scan of edges and no division in the split loop.
type crossings struct {
	c *chain
	i int
	g int64 // gcd(i..j) of the current window [i..j]
	// cost[k] is the split cost c_ij(k) of EQ 3 extended with delays: the
	// sum over the spans inside the window that cross the split between
	// positions k and k+1 of TNSE(e)/g + del(e). scaled[k] is its TNSE
	// part. Each TNSE is divisible by g because g divides the producer's
	// repetition count, so the sums of quotients are exact.
	cost, scaled []int64
}

func (c *chain) newCrossings() *crossings {
	n := len(c.order)
	return &crossings{c: c, cost: make([]int64, n), scaled: make([]int64, n)}
}

// start empties the window to [i..i].
func (x *crossings) start(i int) {
	x.i, x.g = i, x.c.gcd[i][i]
	clear(x.cost[i:])
	clear(x.scaled[i:])
}

// extend grows the window from [i..j-1] to [i..j].
func (x *crossings) extend(j int) {
	c := x.c
	if g := c.gcd[x.i][j]; g != x.g {
		// The new gcd divides the old one, so rescaling is exact.
		f := x.g / g
		for k := x.i; k < j; k++ {
			x.cost[k] += x.scaled[k] * (f - 1)
			x.scaled[k] *= f
		}
		x.g = g
	}
	for _, sp := range c.spans[c.hiStart[j]:c.hiStart[j+1]] {
		if sp.lo < x.i {
			continue
		}
		t := sp.tnse / x.g
		for k := sp.lo; k < j; k++ {
			x.cost[k] += t + sp.delay
			x.scaled[k] += t
		}
	}
}

// buildSchedule reconstructs the nested SAS from a split table. split[i][j]
// holds the chosen k for the window [i..j]. factorOf decides the loop factor
// assigned to window [i..j] given the factor already applied outside it.
func (c *chain) buildSchedule(split [][]int, factorOf func(i, j int, outer int64) int64) *sched.Schedule {
	var build func(i, j int, outer int64) *sched.Node
	build = func(i, j int, outer int64) *sched.Node {
		if i == j {
			return sched.Leaf(c.q[c.order[i]]/outer, c.order[i])
		}
		f := factorOf(i, j, outer)
		k := split[i][j]
		left := build(i, k, outer*f)
		right := build(k+1, j, outer*f)
		return sched.Loop(f, left, right)
	}
	root := build(0, len(c.order)-1, 1)
	return &sched.Schedule{Graph: c.g, Body: []*sched.Node{root}}
}

// alwaysFactor gives window [i..j] its full gcd loop factor (Fact 1 says this
// never hurts under the non-shared model).
func (c *chain) alwaysFactor(i, j int, outer int64) int64 {
	return c.gcd[i][j] / outer
}

// factorIfInternalEdges is the Sec. 5.1 heuristic: factor only when at least
// one edge crosses the chosen split of the window — otherwise looping the two
// halves together merely destroys lifetime disjointness.
func (c *chain) factorIfInternalEdges(split [][]int) func(i, j int, outer int64) int64 {
	return func(i, j int, outer int64) int64 {
		if _, _, count := c.crossing(i, j, split[i][j]); count == 0 {
			return 1
		}
		return c.gcd[i][j] / outer
	}
}

// Result is the outcome of a loop-hierarchy optimization.
type Result struct {
	// Cost is the DP's objective value: total buffer memory (EQ 1) for the
	// non-shared model, or the shared-overlay estimate (EQ 5 / Sec. 6) for
	// the shared models.
	Cost int64
	// Schedule is the nested single appearance schedule realizing the
	// optimal parenthesization for the given lexical order.
	Schedule *sched.Schedule
}

// splitDP fills the interval DP table over the order and returns the
// optimal cost of the full window and the split table: split[i][j] is the
// first k in [i, j) minimizing the cell for window [i..j]. The cell is
// b[i][k] + b[k+1][j] + c_ij(k) for the non-shared model (EQ 2/3) and
// max(b[i][k], b[k+1][j]) + c_ij(k) for the shared model (EQ 5). Needs
// n >= 2.
func (c *chain) splitDP(shared bool) (int64, [][]int) {
	n := len(c.order)
	b := square[int64](n)
	split := square[int](n)
	x := c.newCrossings()
	for i := n - 2; i >= 0; i-- {
		x.start(i)
		bi := b[i]
		for j := i + 1; j < n; j++ {
			x.extend(j)
			best, bestK := int64(-1), i
			for k := i; k < j; k++ {
				l, r := bi[k], b[k+1][j]
				if shared {
					l = max(l, r)
				} else {
					l += r
				}
				if v := l + x.cost[k]; best < 0 || v < best {
					best, bestK = v, k
				}
			}
			bi[j] = best
			split[i][j] = bestK
		}
	}
	return b[0][n-1], split
}

// DPPO computes an order-optimal nested SAS under the non-shared buffer
// model (EQ 2/3). The returned cost is the buffer memory requirement
// bufmem(S) of the schedule for delayless graphs; with delays it is an upper
// bound (delay tokens are charged on every crossing edge). A typed overflow
// error (wrapping num.ErrOverflow) is returned when an edge's TNSE, or the
// total TNSE + delay over all edges, exceeds int64.
func DPPO(g *sdf.Graph, q sdf.Repetitions, order []sdf.ActorID) (*Result, error) {
	c, err := newChain(g, q, order)
	if err != nil {
		return nil, err
	}
	switch len(order) {
	case 0:
		return &Result{Schedule: &sched.Schedule{Graph: g}}, nil
	case 1:
		return &Result{Cost: 0, Schedule: sched.FlatSAS(g, q, order)}, nil
	}
	cost, split := c.splitDP(false)
	return &Result{Cost: cost, Schedule: c.buildSchedule(split, c.alwaysFactor)}, nil
}

// SDPPO computes a nested SAS under the shared (coarse-grained) buffer model
// using the heuristic DP of EQ 5: the two halves of a split are assumed to
// overlay perfectly (max instead of sum) and the crossing buffers are charged
// in full. Loop factors follow the Sec. 5.1 internal-edge heuristic. A typed
// overflow error (wrapping num.ErrOverflow) is returned when an edge's TNSE,
// or the total TNSE + delay over all edges, exceeds int64.
func SDPPO(g *sdf.Graph, q sdf.Repetitions, order []sdf.ActorID) (*Result, error) {
	c, err := newChain(g, q, order)
	if err != nil {
		return nil, err
	}
	switch len(order) {
	case 0:
		return &Result{Schedule: &sched.Schedule{Graph: g}}, nil
	case 1:
		return &Result{Cost: 0, Schedule: sched.FlatSAS(g, q, order)}, nil
	}
	cost, split := c.splitDP(true)
	return &Result{Cost: cost, Schedule: c.buildSchedule(split, c.factorIfInternalEdges(split))}, nil
}

// ErrNotChain reports that the precise DP was applied to a lexical ordering
// under which the graph is not chain-structured.
var ErrNotChain = fmt.Errorf("looping: graph is not chain-structured under this order")
