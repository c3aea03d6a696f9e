// Package sched implements looped schedules for SDF graphs: the schedule
// term language "(n S1 S2 ...)" of Bhattacharyya et al., single appearance
// schedules (SAS), firing expansion, token-exchange simulation, per-edge
// max_tokens, and the non-shared buffer memory metric bufmem (EQ 1 of the
// paper).
package sched

import (
	"strconv"
	"unsafe"

	"repro/internal/sdf"
)

// Node is one term of a looped schedule. A Node is either a leaf — a firing
// block "(Count Actor)" — or an internal loop "(Count Children...)" whose
// body is executed Count times. Count must be >= 1.
//
// The schedule loop notation of the paper maps directly: 2(B(2C)) is a Node
// with Count 2 and children [leaf B, leaf (2 C)].
type Node struct {
	Count    int64
	Actor    sdf.ActorID // meaningful only for leaves
	Children []*Node     // nil for leaves
}

// Leaf returns a leaf node firing actor a count times.
func Leaf(count int64, a sdf.ActorID) *Node {
	if count < 1 {
		panic("sched: leaf count < 1")
	}
	return &Node{Count: count, Actor: a}
}

// Loop returns an internal loop node with the given count and body.
func Loop(count int64, body ...*Node) *Node {
	if count < 1 {
		panic("sched: loop count < 1")
	}
	if len(body) == 0 {
		panic("sched: empty loop body")
	}
	return &Node{Count: count, Children: body}
}

// IsLeaf reports whether n is a firing block.
func (n *Node) IsLeaf() bool { return n.Children == nil }

// Clone returns a deep copy of the schedule term.
func (n *Node) Clone() *Node {
	c := &Node{Count: n.Count, Actor: n.Actor}
	if n.Children != nil {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// Schedule is a complete looped schedule: a sequence of top-level terms
// executed once per schedule period, with access to the graph it schedules.
type Schedule struct {
	Graph *sdf.Graph
	Body  []*Node
}

// FlatSAS builds the flat single appearance schedule (q1 x1)(q2 x2)...(qn xn)
// for the given lexical order.
func FlatSAS(g *sdf.Graph, q sdf.Repetitions, order []sdf.ActorID) *Schedule {
	body := make([]*Node, len(order))
	for i, a := range order {
		body[i] = Leaf(q[a], a)
	}
	return &Schedule{Graph: g, Body: body}
}

// String renders the schedule in the paper's notation, e.g. "(3A(2B))(2C)".
// A count of 1 is omitted; parentheses are kept around every loop with more
// than one body term or a count greater than one.
//
// Every artifact renders its schedule, so String is on the compile and the
// store-hit paths: one walk measures the rendering, a second appends it to
// a buffer of exactly that size, and the string takes the buffer over.
func (s *Schedule) String() string {
	n := 0
	for _, t := range s.Body {
		n += nodeLen(s.Graph, t)
	}
	if n == 0 {
		return ""
	}
	b := make([]byte, 0, n)
	for _, t := range s.Body {
		b = appendTerm(b, s.Graph, t)
	}
	// b is never written again, which is what strings.Builder relies on
	// for the same conversion.
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// nodeLen is the length of n's rendering by appendTerm.
func nodeLen(g *sdf.Graph, n *Node) int {
	if n.IsLeaf() {
		if n.Count == 1 {
			return len(g.Actor(n.Actor).Name)
		}
		return 2 + decLen(n.Count) + len(g.Actor(n.Actor).Name)
	}
	if n.Count == 1 && len(n.Children) == 1 {
		return nodeLen(g, n.Children[0])
	}
	l := 2
	if n.Count != 1 {
		l += decLen(n.Count)
	}
	for _, ch := range n.Children {
		l += nodeLen(g, ch)
	}
	return l
}

func appendTerm(b []byte, g *sdf.Graph, n *Node) []byte {
	if n.IsLeaf() {
		if n.Count == 1 {
			return append(b, g.Actor(n.Actor).Name...)
		}
		b = append(b, '(')
		b = strconv.AppendInt(b, n.Count, 10)
		b = append(b, g.Actor(n.Actor).Name...)
		return append(b, ')')
	}
	if n.Count == 1 && len(n.Children) == 1 {
		return appendTerm(b, g, n.Children[0])
	}
	b = append(b, '(')
	if n.Count != 1 {
		b = strconv.AppendInt(b, n.Count, 10)
	}
	for _, ch := range n.Children {
		b = appendTerm(b, g, ch)
	}
	return append(b, ')')
}

// decLen is the length of c in decimal, as strconv.AppendInt writes it.
func decLen(c int64) int {
	n, u := 1, uint64(c)
	if c < 0 {
		n, u = 2, uint64(-c) // -MinInt64 wraps to itself, whose uint64 is 2^63
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// ForEachFiring expands the schedule into its firing sequence, calling fn for
// every actor firing in order. fn returning false stops the expansion early
// and makes ForEachFiring return false.
func (s *Schedule) ForEachFiring(fn func(a sdf.ActorID) bool) bool {
	for _, n := range s.Body {
		if !forEachFiring(n, fn) {
			return false
		}
	}
	return true
}

func forEachFiring(n *Node, fn func(a sdf.ActorID) bool) bool {
	for i := int64(0); i < n.Count; i++ {
		if n.IsLeaf() {
			if !fn(n.Actor) {
				return false
			}
			continue
		}
		for _, ch := range n.Children {
			if !forEachFiring(ch, fn) {
				return false
			}
		}
	}
	return true
}

// Firings returns the number of firings of each actor in one period.
func (s *Schedule) Firings() []int64 {
	count := make([]int64, s.Graph.NumActors())
	for _, n := range s.Body {
		addFirings(n, 1, count)
	}
	return count
}

func addFirings(n *Node, mult int64, count []int64) {
	m := mult * n.Count
	if n.IsLeaf() {
		count[n.Actor] += m
		return
	}
	for _, ch := range n.Children {
		addFirings(ch, m, count)
	}
}

// Appearances returns how many leaf blocks mention each actor. A schedule is
// a single appearance schedule iff every entry is exactly 1 (or 0 for actors
// absent from the graph component being scheduled).
func (s *Schedule) Appearances() []int {
	app := make([]int, s.Graph.NumActors())
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			app[n.Actor]++
			return
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, n := range s.Body {
		walk(n)
	}
	return app
}

// IsSingleAppearance reports whether every actor of the graph appears in
// exactly one leaf block.
func (s *Schedule) IsSingleAppearance() bool {
	for a, c := range s.Appearances() {
		_ = a
		if c != 1 {
			return false
		}
	}
	return true
}

// LexOrder returns the lexical ordering of the schedule: actors in order of
// first appearance in the firing-block sequence (left to right, depth first).
func (s *Schedule) LexOrder() []sdf.ActorID {
	seen := make([]bool, s.Graph.NumActors())
	var order []sdf.ActorID
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			if !seen[n.Actor] {
				seen[n.Actor] = true
				order = append(order, n.Actor)
			}
			return
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, n := range s.Body {
		walk(n)
	}
	return order
}

// CodeSize returns the inline code-size metric of the schedule: one unit per
// firing-block appearance plus loopOverhead units for every loop with a
// count greater than one (the model of Sec. 3 — a single appearance schedule
// of n actors costs n appearances plus its loop control).
func (s *Schedule) CodeSize(loopOverhead int64) int64 {
	var size int64
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Count > 1 {
			size += loopOverhead
		}
		if n.IsLeaf() {
			size++
			return
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, n := range s.Body {
		walk(n)
	}
	return size
}
