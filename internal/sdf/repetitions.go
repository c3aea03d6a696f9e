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
	// scale by the lcm of denominators. The per-actor arrays come from two
	// slabs: qn and qd, then comp, members and the DFS stack.
	qs := make([]int64, 2*n)
	qn, qd := qs[:n:n], qs[n:]
	ids := make([]int, 3*n)
	comp := ids[:n:n]
	for i := range comp {
		comp[i] = -1
	}
	// members lists the actors in discovery order, component after
	// component; the DFS stack is reused across components.
	members := ids[n : n : 2*n]
	stack := ids[2*n : 2*n]
	for root := 0; root < n; root++ {
		if comp[root] >= 0 {
			continue
		}
		cid := root
		comp[root] = cid
		qn[root], qd[root] = 1, 1
		members = append(members, root)
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			// u's arcs in edge order: its out and in lists, each in edge
			// order as AddEdge appends them, merged by edge ID, the forward
			// arc of a self-loop before its reverse.
			out, in := g.out[u], g.in[u]
			for len(out) > 0 || len(in) > 0 {
				var to ActorID
				var prod, cons int64
				if len(in) == 0 || len(out) > 0 && out[0] <= in[0] {
					e := &g.edges[out[0]]
					out = out[1:]
					to, prod, cons = e.Dst, e.Prod, e.Cons
				} else {
					e := &g.edges[in[0]]
					in = in[1:]
					to, prod, cons = e.Src, e.Cons, e.Prod
				}
				// Balance: q(u)*prod = q(to)*cons => q(to) = q(u)*prod/cons.
				tn, err := mulCheck(qn[u], prod)
				if err != nil {
					return nil, err
				}
				td, err := mulCheck(qd[u], cons)
				if err != nil {
					return nil, err
				}
				if comp[to] < 0 {
					gg := num.GCD(tn, td)
					comp[to] = cid
					qn[to], qd[to] = tn/gg, td/gg
					members = append(members, int(to))
					stack = append(stack, int(to))
				} else if !sameRatio(qn[to], qd[to], tn, td) {
					return nil, fmt.Errorf("%w: actors %s and %s", ErrInconsistent,
						g.actors[u].Name, g.actors[to].Name)
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
func scaleComponent(q Repetitions, cm []int, qn, qd []int64) error {
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
