package sdf

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/num"
)

// ErrInconsistent reports that a graph has no valid repetitions vector, i.e.
// the balance equations admit only the zero solution (sample-rate
// inconsistency).
var ErrInconsistent = errors.New("sdf: graph is sample-rate inconsistent")

// ErrOverflow reports that an exact integer computation exceeded int64 range.
// It wraps num.ErrOverflow, so errors.Is(err, num.ErrOverflow) classifies
// every overflow in the pipeline regardless of which package detected it.
var ErrOverflow = fmt.Errorf("sdf: arithmetic overflow computing repetitions: %w", num.ErrOverflow)

// Repetitions is a repetitions vector q: the minimum positive number of
// firings of each actor in one schedule period, indexed by ActorID.
type Repetitions []int64

// Q returns q(a).
func (q Repetitions) Q(a ActorID) int64 { return q[a] }

// TotalFirings returns the total number of actor firings in one period.
func (q Repetitions) TotalFirings() int64 {
	var n int64
	for _, v := range q {
		n += v
	}
	return n
}

// GCD returns the greatest common divisor of q(a) over the given actors. It
// returns 0 if actors is empty.
func (q Repetitions) GCD(actors []ActorID) int64 {
	var g int64
	for _, a := range actors {
		g = num.GCD(g, q[a])
	}
	return g
}

func lcm64(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	g := num.GCD(a, b)
	return mulCheck(a/g, b)
}

// mulCheck multiplies exactly, mapping num's overflow sentinel onto the
// package-level ErrOverflow the callers of Repetitions test for.
func mulCheck(a, b int64) (int64, error) {
	r, err := num.CheckedMul(a, b)
	if err != nil {
		return 0, ErrOverflow
	}
	return r, nil
}

// Repetitions computes the repetitions vector of g by solving the balance
// equations prd(e)*q(src(e)) = cns(e)*q(snk(e)) exactly. Every connected
// component is normalized independently and the whole vector is reduced so
// that the component-wise gcd is 1 per component. An error is returned if the
// graph is inconsistent or the exact arithmetic overflows int64.
//
// Actors with no edges get q = 1.
func (g *Graph) Repetitions() (Repetitions, error) {
	n := len(g.actors)
	// Represent q(a) as qn[a]/qd[a] relative to the component root, then
	// scale by the lcm of denominators.
	qn := make([]int64, n)
	qd := make([]int64, n)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}

	// Undirected adjacency for component traversal, in CSR form: actor u's
	// arcs are arcs[start[u]:start[u+1]], in edge order, the forward arc of
	// an edge before its reverse. Filling from the back leaves start[u] at
	// the first arc of u.
	type arc struct {
		to   ActorID
		prod int64 // tokens per firing of 'from'
		cons int64 // tokens per firing of 'to'
	}
	start := make([]int, n+1)
	for _, e := range g.edges {
		start[e.Src]++
		start[e.Dst]++
	}
	for u := 1; u <= n; u++ {
		start[u] += start[u-1]
	}
	arcs := make([]arc, 2*len(g.edges))
	for i := len(g.edges) - 1; i >= 0; i-- {
		e := &g.edges[i]
		start[e.Dst]--
		arcs[start[e.Dst]] = arc{to: e.Src, prod: e.Cons, cons: e.Prod}
		start[e.Src]--
		arcs[start[e.Src]] = arc{to: e.Dst, prod: e.Prod, cons: e.Cons}
	}

	// members lists the actors in discovery order, component after
	// component; the DFS stack is reused across components.
	members := make([]ActorID, 0, n)
	stack := make([]ActorID, 0, n)
	for root := 0; root < n; root++ {
		if comp[root] >= 0 {
			continue
		}
		cid := root
		comp[root] = cid
		qn[root], qd[root] = 1, 1
		members = append(members, ActorID(root))
		stack = append(stack[:0], ActorID(root))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range arcs[start[u]:start[u+1]] {
				// Balance: q(u)*prod = q(to)*cons => q(to) = q(u)*prod/cons.
				tn, err := mulCheck(qn[u], a.prod)
				if err != nil {
					return nil, err
				}
				td, err := mulCheck(qd[u], a.cons)
				if err != nil {
					return nil, err
				}
				if comp[a.to] < 0 {
					gg := num.GCD(tn, td)
					comp[a.to] = cid
					qn[a.to], qd[a.to] = tn/gg, td/gg
					members = append(members, a.to)
					stack = append(stack, a.to)
				} else if !sameRatio(qn[a.to], qd[a.to], tn, td) {
					return nil, fmt.Errorf("%w: actors %s and %s", ErrInconsistent,
						g.actors[u].Name, g.actors[a.to].Name)
				}
			}
		}
	}
	q := make(Repetitions, n)
	// Components are contiguous runs of members; scale each only once every
	// component is known consistent.
	for first := 0; first < n; {
		last := first + 1
		for last < n && comp[members[last]] == comp[members[first]] {
			last++
		}
		if err := scaleComponent(q, members[first:last], qn, qd); err != nil {
			return nil, err
		}
		first = last
	}
	return q, nil
}

// sameRatio reports whether the positive fractions an/ad and bn/bd are
// equal, comparing the exact 128-bit cross products: no gcd reduction, no
// division, no overflow.
func sameRatio(an, ad, bn, bd int64) bool {
	h1, l1 := bits.Mul64(uint64(an), uint64(bd))
	h2, l2 := bits.Mul64(uint64(bn), uint64(ad))
	return h1 == h2 && l1 == l2
}

// scaleComponent writes q for one connected component from its relative
// rates qn/qd: scale by the lcm of the denominators, then divide by the gcd
// of the numerators. Neither depends on the order of cm, and every partial
// lcm divides the final one, so it overflows exactly when the final one
// does.
func scaleComponent(q Repetitions, cm []ActorID, qn, qd []int64) error {
	var l int64 = 1
	for _, a := range cm {
		var err error
		l, err = lcm64(l, qd[a])
		if err != nil {
			return err
		}
	}
	var cg int64
	for _, a := range cm {
		v, err := mulCheck(qn[a], l/qd[a])
		if err != nil {
			return err
		}
		q[a] = v
		cg = num.GCD(cg, v)
	}
	if cg > 1 {
		for _, a := range cm {
			q[a] /= cg
		}
	}
	return nil
}

// TNSE returns the total number of samples exchanged on edge e in one
// schedule period: prd(e) * q(src(e)). On large multirate graphs the product
// can exceed int64 even though the repetitions vector itself fits; the typed
// overflow error (wrapping num.ErrOverflow) surfaces that instead of
// silently wrapping.
func TNSE(g *Graph, q Repetitions, e EdgeID) (int64, error) {
	ed := g.Edge(e)
	t, err := num.CheckedMul(ed.Prod, q[ed.Src])
	if err != nil {
		return 0, fmt.Errorf("sdf: TNSE of edge %d (%s->%s) overflows: %w",
			e, g.actors[ed.Src].Name, g.actors[ed.Dst].Name, num.ErrOverflow)
	}
	return t, nil
}

// Consistent reports whether the graph has a valid repetitions vector.
func (g *Graph) Consistent() bool {
	_, err := g.Repetitions()
	return err == nil
}
