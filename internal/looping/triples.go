package looping

import (
	"sort"

	"repro/internal/sched"
	"repro/internal/sdf"
)

// Triple is the (left, cost, right) cost of Sec. 6: Cost is the total shared
// buffer memory of the subchain implemented in isolation; Left is the part of
// that memory that can be simultaneously live with the buffer on the input
// edge of the subchain's first actor; Right likewise for the output edge of
// the last actor. Invariant: Left <= Cost and Right <= Cost.
type Triple struct {
	Left, Cost, Right int64
}

// dominates reports component-wise <=.
func (t Triple) dominates(o Triple) bool {
	return t.Left <= o.Left && t.Cost <= o.Cost && t.Right <= o.Right
}

// maxTriples bounds the Pareto frontier kept per DP cell, keeping the space
// and running time polynomial as suggested at the end of Sec. 6.1.
const maxTriples = 8

// entry is one kept alternative in a DP cell, with reconstruction links.
type entry struct {
	t          Triple
	k          int // split position (meaningless for single-actor cells)
	left, rght int // entry indices in the child cells
}

// combineTriples implements the nine gcd-ratio cases of Sec. 6.1. l and r
// are the child triples, cost is the split-crossing buffer size and rL, rR
// are the iteration ratios g(i,k)/g(i,j) and g(k+1,j)/g(i,j).
func combineTriples(l, r Triple, cost, rL, rR int64) Triple {
	var t Triple
	mids := make([]int64, 0, 4)
	switch {
	case rL == 1:
		// S_L runs once per iteration: the crossing buffer overlaps only the
		// right-exposed part of S_L (Case I).
		t.Left = l.Left
		mids = append(mids, l.Cost, l.Right+cost)
	case rL == 2:
		// Two invocations of S_L: the crossing buffer is live across the
		// second one, and the subchain's own input buffer sees either the
		// first invocation alone or the second one plus the crossing buffer
		// (Case II).
		t.Left = max(l.Left+cost, l.Cost)
		mids = append(mids, l.Cost+cost)
	default: // rL > 2
		// Middle invocations of S_L are fully overlapped by the crossing
		// buffer (Case III).
		t.Left = l.Cost + cost
		mids = append(mids, l.Cost+cost)
	}
	switch {
	case rR == 1:
		t.Right = r.Right
		mids = append(mids, r.Cost, r.Left+cost)
	case rR == 2:
		t.Right = max(r.Right+cost, r.Cost)
		mids = append(mids, r.Cost+cost)
	default: // rR > 2
		t.Right = r.Cost + cost
		mids = append(mids, r.Cost+cost)
	}
	for _, m := range mids {
		if m > t.Cost {
			t.Cost = m
		}
	}
	// Keep the invariant Left, Right <= Cost (the exposed parts are subsets
	// of the whole).
	if t.Left > t.Cost {
		t.Cost = t.Left
	}
	if t.Right > t.Cost {
		t.Cost = t.Right
	}
	return t
}

// insertPareto adds a candidate entry to a cell, dropping dominated entries
// and enforcing the frontier bound.
func insertPareto(cell []entry, e entry) []entry {
	for _, ex := range cell {
		if ex.t.dominates(e.t) {
			return cell
		}
	}
	kept := cell[:0]
	for _, ex := range cell {
		if !e.t.dominates(ex.t) {
			kept = append(kept, ex)
		}
	}
	kept = append(kept, e)
	if len(kept) > maxTriples {
		sort.Slice(kept, func(a, b int) bool {
			if kept[a].t.Cost != kept[b].t.Cost {
				return kept[a].t.Cost < kept[b].t.Cost
			}
			// Left and Right are >= 0, so their sum fits a uint64 even
			// when it would wrap an int64.
			sa := uint64(kept[a].t.Left) + uint64(kept[a].t.Right)
			sb := uint64(kept[b].t.Left) + uint64(kept[b].t.Right)
			return sa < sb
		})
		kept = kept[:maxTriples]
	}
	return kept
}

// tripleCells fills the precise DP's table: cells[i][j] holds the Pareto
// frontier for the window [i..j]. Needs n >= 2.
func (c *chain) tripleCells() [][][]entry {
	n := len(c.order)
	cells := square[[]entry](n)
	for i := range cells {
		cells[i][i] = []entry{{t: Triple{0, 0, 0}}}
	}
	x := c.newCrossings()
	for i := n - 2; i >= 0; i-- {
		x.start(i)
		for j := i + 1; j < n; j++ {
			x.extend(j)
			g := c.gcd[i][j]
			var cell []entry
			for k := i; k < j; k++ {
				cost := x.cost[k]
				rL := c.gcd[i][k] / g
				rR := c.gcd[k+1][j] / g
				for li, le := range cells[i][k] {
					for ri, re := range cells[k+1][j] {
						t := combineTriples(le.t, re.t, cost, rL, rR)
						cell = insertPareto(cell, entry{t: t, k: k, left: li, rght: ri})
					}
				}
			}
			cells[i][j] = cell
		}
	}
	return cells
}

// ChainSDPPO runs the precise shared-model DP for chain-structured graphs
// (Sec. 6), carrying Pareto-incomparable cost triples. It returns ErrNotChain
// if some edge connects non-adjacent positions of the order.
func ChainSDPPO(g *sdf.Graph, q sdf.Repetitions, order []sdf.ActorID) (*Result, error) {
	if !g.IsChain(order) {
		return nil, ErrNotChain
	}
	c, err := newChain(g, q, order)
	if err != nil {
		return nil, err
	}
	n := len(order)
	if n == 0 {
		return &Result{Schedule: &sched.Schedule{Graph: g}}, nil
	}
	if n == 1 {
		return &Result{Cost: 0, Schedule: sched.FlatSAS(g, q, order)}, nil
	}
	cells := c.tripleCells()
	// Choose the minimum total cost in the full window.
	full := cells[0][n-1]
	bestIdx := 0
	for i, e := range full {
		if e.t.Cost < full[bestIdx].t.Cost {
			bestIdx = i
		}
	}
	// Reconstruct the split table implied by the chosen entry chain.
	split := square[int](n)
	var mark func(i, j, idx int)
	mark = func(i, j, idx int) {
		if i == j {
			return
		}
		e := cells[i][j][idx]
		split[i][j] = e.k
		mark(i, e.k, e.left)
		mark(e.k+1, j, e.rght)
	}
	mark(0, n-1, bestIdx)
	return &Result{
		Cost:     full[bestIdx].t.Cost,
		Schedule: c.buildSchedule(split, c.alwaysFactor),
	}, nil
}
