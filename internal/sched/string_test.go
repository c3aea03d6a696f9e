package sched_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/looping"
	"repro/internal/randsdf"
	"repro/internal/rpmc"
	"repro/internal/sched"
	"repro/internal/sdf"
	"repro/internal/systems"
)

// fmtString is the fmt-based rendering Schedule.String replaced, kept as
// the oracle its output must match byte for byte.
func fmtString(s *sched.Schedule) string {
	var b strings.Builder
	for _, n := range s.Body {
		fmtNode(&b, s.Graph, n)
	}
	return b.String()
}

func fmtNode(b *strings.Builder, g *sdf.Graph, n *sched.Node) {
	if n.IsLeaf() {
		if n.Count == 1 {
			b.WriteString(g.Actor(n.Actor).Name)
			return
		}
		fmt.Fprintf(b, "(%d%s)", n.Count, g.Actor(n.Actor).Name)
		return
	}
	if n.Count == 1 && len(n.Children) == 1 {
		fmtNode(b, g, n.Children[0])
		return
	}
	b.WriteByte('(')
	if n.Count != 1 {
		fmt.Fprintf(b, "%d", n.Count)
	}
	for _, ch := range n.Children {
		fmtNode(b, g, ch)
	}
	b.WriteByte(')')
}

// schedulesOf returns the flat, SDPPO and DPPO schedules of g over its RPMC
// order: leaves with and without counts, nested loops, and count-1 loops.
func schedulesOf(t *testing.T, g *sdf.Graph) []*sched.Schedule {
	t.Helper()
	q, err := g.Repetitions()
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	order, err := rpmc.Order(g, q)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	out := []*sched.Schedule{sched.FlatSAS(g, q, order)}
	sd, err := looping.SDPPO(g, q, order)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	dp, err := looping.DPPO(g, q, order)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	return append(out, sd.Schedule, dp.Schedule)
}

func TestStringMatchesFmtOracle(t *testing.T) {
	graphs := systems.Table1Systems()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		graphs = append(graphs, randsdf.Graph(rng, randsdf.Config{Actors: 2 + rng.Intn(30), DelayProb: 0.2}))
	}
	checked := 0
	for _, g := range graphs {
		for _, s := range schedulesOf(t, g) {
			if got, want := s.String(), fmtString(s); got != want {
				t.Fatalf("%s: String() = %q, fmt oracle %q", g.Name, got, want)
			}
			checked++
		}
	}
	// Hand-built terms the looping passes may not emit: a count-1 loop
	// around several terms, a count-1 loop around one, and counts at the
	// int64 extreme.
	g := sdf.New("terms")
	a, b := g.AddActor("A"), g.AddActor("Bee")
	extra := []*sched.Schedule{
		{Graph: g, Body: []*sched.Node{sched.Loop(1, sched.Leaf(1, a), sched.Leaf(2, b))}},
		{Graph: g, Body: []*sched.Node{sched.Loop(1, sched.Loop(3, sched.Leaf(1, a)))}},
		{Graph: g, Body: []*sched.Node{sched.Loop(1<<62, sched.Leaf(9223372036854775807, b), sched.Leaf(10, a))}},
		{Graph: g},
	}
	for _, s := range extra {
		if got, want := s.String(), fmtString(s); got != want {
			t.Fatalf("String() = %q, fmt oracle %q", got, want)
		}
		checked++
	}
	t.Logf("%d schedules render identically", checked)
}

// builderString is the strings.Builder rendering Schedule.String replaced,
// which grew its buffer by appends; the presized rendering must match it
// byte for byte.
func builderString(s *sched.Schedule) string {
	var b strings.Builder
	for _, n := range s.Body {
		builderNode(&b, s.Graph, n)
	}
	return b.String()
}

func builderNode(b *strings.Builder, g *sdf.Graph, n *sched.Node) {
	if n.IsLeaf() {
		if n.Count == 1 {
			b.WriteString(g.Actor(n.Actor).Name)
			return
		}
		b.WriteByte('(')
		b.WriteString(strconv.FormatInt(n.Count, 10))
		b.WriteString(g.Actor(n.Actor).Name)
		b.WriteByte(')')
		return
	}
	if n.Count == 1 && len(n.Children) == 1 {
		builderNode(b, g, n.Children[0])
		return
	}
	b.WriteByte('(')
	if n.Count != 1 {
		b.WriteString(strconv.FormatInt(n.Count, 10))
	}
	for _, ch := range n.Children {
		builderNode(b, g, ch)
	}
	b.WriteByte(')')
}

// TestStringMatchesBuilder: the measured, presized rendering equals the
// strings.Builder one on Table 1 and a seeded randsdf sample, and on counts
// of every decimal width, negative ones included.
func TestStringMatchesBuilder(t *testing.T) {
	graphs := systems.Table1Systems()
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 60; i++ {
		graphs = append(graphs, randsdf.Graph(rng, randsdf.Config{Actors: 2 + rng.Intn(60), DelayProb: 0.2}))
	}
	var all []*sched.Schedule
	for _, g := range graphs {
		all = append(all, schedulesOf(t, g)...)
	}
	g := sdf.New("widths")
	a, b := g.AddActor("A"), g.AddActor("Bee")
	// Literal nodes, since Leaf and Loop reject counts below 1.
	term := func(k int64) []*sched.Node {
		return []*sched.Node{
			{Count: k, Actor: a},
			{Count: k, Children: []*sched.Node{{Count: k, Actor: b}, {Count: 1, Actor: a}}},
		}
	}
	for c := int64(1); c <= math.MaxInt64/10; c *= 10 {
		for _, k := range []int64{c - 1, c, c + 1, -c, 9 * c} {
			all = append(all, &sched.Schedule{Graph: g, Body: term(k)})
		}
	}
	for _, k := range []int64{math.MinInt64, math.MaxInt64} {
		all = append(all, &sched.Schedule{Graph: g, Body: term(k)})
	}
	all = append(all, &sched.Schedule{Graph: g})
	for _, s := range all {
		if got, want := s.String(), builderString(s); got != want {
			t.Fatalf("%s: String() = %q, builder rendering %q", s.Graph.Name, got, want)
		}
		// A measuring walk that came up short would make the appends grow
		// the buffer again.
		if n := testing.AllocsPerRun(1, func() { _ = s.String() }); n > 1 {
			t.Fatalf("%s: String() %q allocates %v times, want once", s.Graph.Name, s.String(), n)
		}
	}
	t.Logf("%d schedules render identically", len(all))
}

func BenchmarkString(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randsdf.Graph(rng, randsdf.Config{Actors: 150, DelayProb: 0.1})
	q, err := g.Repetitions()
	if err != nil {
		b.Fatal(err)
	}
	order, err := rpmc.Order(g, q)
	if err != nil {
		b.Fatal(err)
	}
	r, err := looping.SDPPO(g, q, order)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Schedule.String()
	}
}
