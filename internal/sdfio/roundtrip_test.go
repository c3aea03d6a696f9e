package sdfio

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/randsdf"
	"repro/internal/sdf"
	"repro/internal/systems"
)

// roundTrip writes g and parses the text back.
func roundTrip(g *sdf.Graph) (*sdf.Graph, string, error) {
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		return nil, "", err
	}
	back, err := Parse(bytes.NewReader(buf.Bytes()))
	return back, buf.String(), err
}

// sameGraph reports the first field in which got differs from want: the
// graph name, an actor's name by ID, or an edge's endpoints, rates, delay
// or token width by ID. Equal graphs get the same actor and edge IDs, so
// whatever a compiler derives from one it derives from the other.
func sameGraph(want, got *sdf.Graph) error {
	if got.Name != want.Name {
		return fmt.Errorf("graph name %q, want %q", got.Name, want.Name)
	}
	if got.NumActors() != want.NumActors() || got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("%d actors and %d edges, want %d and %d",
			got.NumActors(), got.NumEdges(), want.NumActors(), want.NumEdges())
	}
	for i, a := range want.Actors() {
		if b := got.Actor(sdf.ActorID(i)); b != a {
			return fmt.Errorf("actor %d is %+v, want %+v", i, b, a)
		}
	}
	for i, e := range want.Edges() {
		if f := got.Edge(sdf.EdgeID(i)); f != e {
			return fmt.Errorf("edge %d is %+v, want %+v", i, f, e)
		}
	}
	return nil
}

// TestWriteParseIdentity holds Parse(Write(g)) to g field for field over
// the Table-1 systems, 200 seeded random graphs (some with delays and
// multi-word tokens) and each of those parsed back from its own text. The
// service derives a request's canonical text from the graph it parsed
// once; this identity is what makes that graph the one the canonical text
// describes.
func TestWriteParseIdentity(t *testing.T) {
	graphs := systems.Table1Systems()
	rng := rand.New(rand.NewSource(1))
	for i := range 200 {
		g := randsdf.Graph(rng, randsdf.Config{Actors: 2 + i%40, DelayProb: 0.3})
		for _, e := range g.Edges() {
			if rng.Intn(4) == 0 {
				g.SetWords(e.ID, 1+rng.Int63n(8))
			}
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		back, text, err := roundTrip(g)
		if err != nil {
			t.Fatalf("%s: %v\n%s", g.Name, err, text)
		}
		if err := sameGraph(g, back); err != nil {
			t.Fatalf("%s: round trip changed the graph: %v", g.Name, err)
		}
		again, text2, err := roundTrip(back)
		if err != nil || text2 != text {
			t.Fatalf("%s: second round trip: err %v, text changed %v", g.Name, err, text2 != text)
		}
		if err := sameGraph(back, again); err != nil {
			t.Fatalf("%s: second round trip changed the graph: %v", g.Name, err)
		}
	}
}

// TestParseAssignsFirstMentionIDs pins the order Write's output relies on:
// actors are numbered as first mentioned, by an actor line or an edge
// endpoint, and the canonical text keeps that order rather than sorting.
func TestParseAssignsFirstMentionIDs(t *testing.T) {
	g, err := Parse(strings.NewReader("graph g\nedge Z A 1 1\nactor M\nedge A M 2 1 3 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := CanonicalString(g)
	if err != nil {
		t.Fatal(err)
	}
	want := "graph g\nactor Z\nactor A\nactor M\nedge Z A 1 1 0\nedge A M 2 1 3 4\n"
	if canonical != want {
		t.Fatalf("canonical text %q, want %q", canonical, want)
	}
}
