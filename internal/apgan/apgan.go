// Package apgan implements APGAN — acyclic pairwise grouping of adjacent
// nodes (Bhattacharyya, Murthy, Lee [3]; Sec. 7 of the paper): a bottom-up
// clustering heuristic that repeatedly merges the adjacent cluster pair with
// the largest gcd of repetition counts, subject to not introducing a cycle in
// the clustered graph. The resulting binary cluster hierarchy yields both a
// lexical ordering (for DPPO/SDPPO post-optimization) and a nested single
// appearance schedule.
package apgan

import (
	"errors"
	"fmt"

	"repro/internal/num"
	"repro/internal/sched"
	"repro/internal/sdf"
)

// Hierarchy is a node of the binary cluster hierarchy. Leaves are actors;
// internal nodes are ordered pairs (Left before Right in the schedule).
type Hierarchy struct {
	Actor       sdf.ActorID // leaves only
	Left, Right *Hierarchy
	// Rep is the repetition count of the cluster: q(a) for leaves, the gcd
	// of the children's reps for pairs.
	Rep int64
}

// IsLeaf reports whether h is a single actor.
func (h *Hierarchy) IsLeaf() bool { return h.Left == nil }

// Result carries everything APGAN produces.
type Result struct {
	// Order is the lexical ordering induced by the hierarchy (in-order
	// traversal), a topological sort of the precedence graph.
	Order []sdf.ActorID
	// Schedule is the nested single appearance schedule implied by the
	// cluster hierarchy, with fully factored loop counts.
	Schedule *sched.Schedule
	// Root of the cluster hierarchy (nil only for empty graphs).
	Root *Hierarchy
}

// ErrNotClusterable reports that clustering got stuck, which only happens on
// graphs whose precedence relation is cyclic.
var ErrNotClusterable = errors.New("apgan: graph not clusterable (cyclic precedence?)")

// Run executes APGAN over the whole graph. Disconnected components are
// clustered pairwise at rep gcd like everything else (the candidate scan
// falls back to non-adjacent merges only between components, which cannot
// create cycles).
func Run(g *sdf.Graph, q sdf.Repetitions) (*Result, error) {
	n := g.NumActors()
	if n == 0 {
		return &Result{Schedule: &sched.Schedule{Graph: g}}, nil
	}
	m := newMerger(g, q)
	for alive := n; alive > 1; alive-- {
		pair, ok, err := m.pickPair()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, ErrNotClusterable
		}
		m.merge(pair.src, pair.dst)
	}
	var root *Hierarchy
	for _, c := range m.clusters {
		if c != nil {
			root = c
			break
		}
	}
	res := &Result{Root: root}
	res.Order = appendOrder(make([]sdf.ActorID, 0, n), root)
	res.Schedule = &sched.Schedule{Graph: g, Body: []*sched.Node{buildNode(root, q, 1)}}
	return res, nil
}

type candidate struct {
	src, dst int // cluster indices; src scheduled before dst
	gcd      int64
	tnse     int64
	hasPrec  bool // some precedence edge runs src->dst
}

// better is the selection order: maximum gcd of reps, then total tokens
// exchanged (descending), then cluster ids. It is total over the distinct
// pairs of one merge.
func (c *candidate) better(o *candidate) bool {
	if c.gcd != o.gcd {
		return c.gcd > o.gcd
	}
	if c.tnse != o.tnse {
		return c.tnse > o.tnse
	}
	if c.src != o.src {
		return c.src < o.src
	}
	return c.dst < o.dst
}

// merger holds the clustering state and the slices every merge reuses. The
// edge facts (TNSE, precedence) depend only on (g, q) and are computed once;
// each merge then re-buckets the inter-cluster edges, which costs O(n + E)
// and allocates nothing once the candidate slice has grown.
type merger struct {
	n    int
	tnse []int64 // per edge: tokens per period (0 on self-loops)
	prec []bool  // per edge: sdf.PrecedenceEdge
	// tnseErrAt is the first non-self-loop edge whose TNSE overflows (-1:
	// none), tnseErr its error.
	tnseErrAt int
	tnseErr   error

	// cs[e], cd[e] = current clusters of edge e's source and sink, and
	// gcd[e] the gcd of their reps; live lists the edges between two
	// clusters, in edge order. clusters[i] == nil once merged away.
	cs, cd   []int
	gcd      []int64
	live     []int
	clusters []*Hierarchy
	nodes    []Hierarchy // slab for merged clusters

	start  []int // CSR row starts (n+1), by lower cluster id, then by source cluster
	items  []int // CSR entries: edge ids, then arc targets
	slot   []int // per cluster: its candidate index in the current bucket
	stamp  []int // per cluster: bucket generation that set slot, then DFS generation
	gen    int
	stack  []int
	cands  []candidate
	parent []int // union-find of twoComponents, allocated on first use
}

func newMerger(g *sdf.Graph, q sdf.Repetitions) *merger {
	n, ne := g.NumActors(), g.NumEdges()
	m := &merger{
		n:         n,
		tnse:      make([]int64, ne),
		prec:      make([]bool, ne),
		tnseErrAt: -1,
		cs:        make([]int, ne),
		cd:        make([]int, ne),
		gcd:       make([]int64, ne),
		live:      make([]int, 0, ne),
		clusters:  make([]*Hierarchy, n),
		nodes:     make([]Hierarchy, 2*n-1),
		start:     make([]int, n+1),
		items:     make([]int, ne),
		slot:      make([]int, n),
		stamp:     make([]int, n),
		cands:     make([]candidate, 0, ne),
	}
	for i, e := range g.Edges() {
		m.cs[i], m.cd[i] = int(e.Src), int(e.Dst)
		m.prec[i] = sdf.PrecedenceEdge(g, q, e.ID)
		if e.Src == e.Dst {
			continue
		}
		m.live = append(m.live, i)
		m.gcd[i] = num.GCD(q[e.Src], q[e.Dst])
		t, err := sdf.TNSE(g, q, e.ID)
		if err != nil && m.tnseErrAt < 0 {
			m.tnseErrAt, m.tnseErr = i, err
		}
		m.tnse[i] = t
	}
	for a := 0; a < n; a++ {
		m.nodes[a] = Hierarchy{Actor: sdf.ActorID(a), Rep: q[a]}
		m.clusters[a] = &m.nodes[a]
	}
	m.nodes = m.nodes[n:]
	return m
}

// merge clusters dst into src, src scheduled first. It drops the edges that
// now lie inside one cluster from the live list, keeping edge order, and
// refreshes the rep gcd of the edges that touch the merged cluster.
func (m *merger) merge(src, dst int) {
	l, r := m.clusters[src], m.clusters[dst]
	merged := &m.nodes[0]
	*merged = Hierarchy{Left: l, Right: r, Rep: num.GCD(l.Rep, r.Rep)}
	m.clusters[src] = merged
	m.nodes = m.nodes[1:]
	m.clusters[dst] = nil
	live := m.live[:0]
	for _, e := range m.live {
		cs, cd := m.cs[e], m.cd[e]
		if cs == dst {
			cs = src
		}
		if cd == dst {
			cd = src
		}
		if cs == cd {
			continue
		}
		if cs == src || cd == src {
			m.cs[e], m.cd[e] = cs, cd
			m.gcd[e] = num.GCD(m.clusters[cs].Rep, m.clusters[cd].Rep)
		}
		live = append(live, e)
	}
	m.live = live
}

// pickPair selects the best legal merge: maximum gcd of reps, ties broken by
// total tokens exchanged (descending) then cluster ids. Adjacent pairs are
// preferred; if none is legal, a pair of clusters from different weakly
// connected components (if any) is merged.
func (m *merger) pickPair() (candidate, bool, error) {
	if err := m.gatherCandidates(); err != nil {
		return candidate{}, false, err
	}
	m.buildArcs()
	for len(m.cands) > 0 {
		best := 0
		for i := 1; i < len(m.cands); i++ {
			if m.cands[i].better(&m.cands[best]) {
				best = i
			}
		}
		c := m.cands[best]
		if !m.reaches(c.src, c.dst) && !m.reaches(c.dst, c.src) {
			return c, true, nil
		}
		last := len(m.cands) - 1
		m.cands[best] = m.cands[last]
		m.cands = m.cands[:last]
	}
	// No adjacent pair is legal. Merge across components if possible
	// (cannot create a cycle).
	if a, b, ok := m.twoComponents(); ok {
		return candidate{src: a, dst: b}, true, nil
	}
	return candidate{}, false, nil
}

// gatherCandidates aggregates the inter-cluster edges into one candidate
// per unordered cluster pair. A stable counting sort buckets the edges by
// their lower cluster id, so each pair sees its edges in edge order: the
// orientation comes from the pair's first edge unless a precedence edge
// follows (delay-saturated edges may run backwards without forcing an
// order). The error is the first, in edge order, of a TNSE overflow and a
// pair aggregate overflow.
func (m *merger) gatherCandidates() error {
	clear(m.start)
	for _, e := range m.live {
		m.start[min(m.cs[e], m.cd[e])+1]++
	}
	for c := 0; c < m.n; c++ {
		m.start[c+1] += m.start[c]
	}
	for _, e := range m.live {
		lo := min(m.cs[e], m.cd[e])
		m.items[m.start[lo]] = e
		m.start[lo]++
	}
	shiftBack(m.start)
	m.cands = m.cands[:0]
	errAt := m.tnseErrAt
	if errAt < 0 {
		errAt = len(m.tnse)
	}
	ovSrc, ovDst := -1, -1
	for c := 0; c < m.n; c++ {
		bucket := m.items[m.start[c]:m.start[c+1]]
		if len(bucket) == 0 {
			continue
		}
		m.gen++
		for _, e := range bucket {
			cs, cd := m.cs[e], m.cd[e]
			hi := max(cs, cd)
			if m.stamp[hi] != m.gen {
				m.stamp[hi] = m.gen
				m.slot[hi] = len(m.cands)
				m.cands = append(m.cands, candidate{src: cs, dst: cd, gcd: m.gcd[e]})
			}
			p := &m.cands[m.slot[hi]]
			if m.prec[e] && !p.hasPrec {
				p.src, p.dst = cs, cd
				p.hasPrec = true
			}
			// After a pair's first overflow its later edges can only
			// overflow later, so the pair never sets errAt again.
			t, err := num.CheckedAdd(p.tnse, m.tnse[e])
			if err != nil {
				if e < errAt {
					errAt, ovSrc, ovDst = e, p.src, p.dst
				}
				continue
			}
			p.tnse = t
		}
	}
	if ovSrc >= 0 {
		return fmt.Errorf("apgan: aggregate traffic of pair (%d,%d) overflows: %w",
			ovSrc, ovDst, num.ErrOverflow)
	}
	return m.tnseErr
}

// buildArcs lays out the precedence digraph between live clusters as a CSR
// over source clusters: the arcs of cluster c are items[start[c]:start[c+1]].
// Parallel arcs stay; reachability does not mind them.
func (m *merger) buildArcs() {
	clear(m.start)
	for _, e := range m.live {
		if m.prec[e] {
			m.start[m.cs[e]+1]++
		}
	}
	for c := 0; c < m.n; c++ {
		m.start[c+1] += m.start[c]
	}
	for _, e := range m.live {
		if m.prec[e] {
			m.items[m.start[m.cs[e]]] = m.cd[e]
			m.start[m.cs[e]]++
		}
	}
	shiftBack(m.start)
}

// shiftBack restores the row starts of a CSR after a counting-sort fill:
// filling advanced each start[c] to the end of row c, which is where row
// c+1 starts.
func shiftBack(start []int) {
	copy(start[1:], start[:len(start)-1])
	start[0] = 0
}

// reaches reports whether dst is reachable from src over a path of length
// >= 2, that is without the direct src->dst arcs. Merging a pair that is
// joined by such a path in either direction would create a cycle.
func (m *merger) reaches(src, dst int) bool {
	m.gen++
	m.stamp[src] = m.gen
	m.stack = append(m.stack[:0], src)
	for len(m.stack) > 0 {
		u := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		for _, v := range m.items[m.start[u]:m.start[u+1]] {
			if v == dst {
				if u == src {
					continue // a direct arc
				}
				return true
			}
			if m.stamp[v] != m.gen {
				m.stamp[v] = m.gen
				m.stack = append(m.stack, v)
			}
		}
	}
	return false
}

// twoComponents returns the lowest live cluster and the lowest live cluster
// outside its weakly connected component of the precedence digraph, if any.
// A union-find over the CSR's arcs joins their ends in either direction.
func (m *merger) twoComponents() (int, int, bool) {
	if m.parent == nil {
		m.parent = make([]int, m.n)
	}
	parent := m.parent
	for c := range parent {
		parent[c] = c
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := 0; u < m.n; u++ {
		for _, v := range m.items[m.start[u]:m.start[u+1]] {
			parent[find(u)] = find(v)
		}
	}
	first := -1
	for c, h := range m.clusters {
		switch {
		case h == nil:
		case first < 0:
			first = c
		case find(c) != find(first):
			return first, c, true
		}
	}
	return 0, 0, false
}

func appendOrder(out []sdf.ActorID, h *Hierarchy) []sdf.ActorID {
	if h == nil {
		return out
	}
	if h.IsLeaf() {
		return append(out, h.Actor)
	}
	out = appendOrder(out, h.Left)
	return appendOrder(out, h.Right)
}

// buildNode turns the hierarchy into a nested schedule: a cluster with rep r
// inside a context already iterating outer times becomes a loop of r/outer.
func buildNode(h *Hierarchy, q sdf.Repetitions, outer int64) *sched.Node {
	if h.IsLeaf() {
		return sched.Leaf(q[h.Actor]/outer, h.Actor)
	}
	f := h.Rep / outer
	return sched.Loop(f, buildNode(h.Left, q, h.Rep), buildNode(h.Right, q, h.Rep))
}
