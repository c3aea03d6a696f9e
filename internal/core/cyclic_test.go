package core

import (
	"math/rand"
	"testing"

	"repro/internal/randsdf"
	"repro/internal/sdf"
	"repro/internal/systems"
)

// feedbackLoop builds a two-actor feedback system: A -> B forward, B -> A
// backward with enough initial tokens for k firings of A.
func feedbackLoop(t *testing.T, delay int64) *sdf.Graph {
	t.Helper()
	g := sdf.New("feedback")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(a, b, 1, 1, 0)
	g.AddEdge(b, a, 1, 1, delay)
	return g
}

func TestCompileGeneralAcyclicDelegates(t *testing.T) {
	g := sdf.New("chain")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(a, b, 2, 1, 0)
	res, err := CompileGeneral(g, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedule.IsSingleAppearance() {
		t.Error("acyclic path should produce a SAS")
	}
}

func TestCompileGeneralFeedback(t *testing.T) {
	// A unit-rate loop with one delay token: the back edge carries a full
	// period of tokens, so precedence-wise the graph is acyclic and the
	// normal SAS path applies (del >= TNSE rule of [3]).
	g := feedbackLoop(t, 1)
	res, err := CompileGeneral(g, Options{Verify: true, VerifyPeriods: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.SharedTotal <= 0 {
		t.Error("no memory allocated")
	}
	if !res.Schedule.IsSingleAppearance() {
		t.Error("delay-broken loop should take the SAS path")
	}
	if err := res.Schedule.Validate(res.Repetitions); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestCompileGeneralDeadlock(t *testing.T) {
	g := feedbackLoop(t, 0) // no initial tokens: deadlocked cycle
	if _, err := CompileGeneral(g, Options{}); err == nil {
		t.Fatal("deadlocked graph compiled")
	}
}

// TestCompileGeneralMultirateCycle: a multirate loop where the SCC needs
// several firings per composite period.
func TestCompileGeneralMultirateCycle(t *testing.T) {
	g := sdf.New("mrc")
	src := g.AddActor("src")
	a := g.AddActor("A")
	b := g.AddActor("B")
	snk := g.AddActor("snk")
	g.AddEdge(src, a, 2, 1, 0)
	g.AddEdge(a, b, 3, 2, 0)
	g.AddEdge(b, a, 2, 3, 4) // feedback: enough delay to break the cycle,
	// but below one period's consumption, so the edge still constrains
	// precedence and keeps {A, B} strongly connected
	g.AddEdge(b, snk, 1, 1, 0)
	q, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	if g.IsAcyclic(q) {
		t.Fatal("test graph should be cyclic")
	}
	res, err := CompileGeneral(g, Options{Verify: true, VerifyPeriods: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The feedback edge must get a dedicated buffer covering its peak.
	sim, err := res.Schedule.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if res.Intervals[e.ID].Size < sim.MaxTokens[e.ID] {
			t.Errorf("edge %d: interval %d below peak %d",
				e.ID, res.Intervals[e.ID].Size, sim.MaxTokens[e.ID])
		}
	}
}

// TestCompileGeneralTwoSCCs: two feedback pairs in series must condense to a
// two-composite chain whose buffers still share.
func TestCompileGeneralTwoSCCs(t *testing.T) {
	g := sdf.New("twoscc")
	a := g.AddActor("A")
	b := g.AddActor("B")
	c := g.AddActor("C")
	d := g.AddActor("D")
	g.AddEdge(a, b, 1, 1, 0)
	g.AddEdge(b, a, 1, 1, 1)
	g.AddEdge(b, c, 1, 1, 0)
	g.AddEdge(c, d, 1, 1, 0)
	g.AddEdge(d, c, 1, 1, 1)
	res, err := CompileGeneral(g, Options{Verify: true, VerifyPeriods: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.SharedTotal > res.Metrics.NonSharedBufMem {
		t.Errorf("shared %d above non-shared %d",
			res.Metrics.SharedTotal, res.Metrics.NonSharedBufMem)
	}
}

// TestCompileGeneralRandomWithBackEdges: random DAGs with random delay-
// carrying back edges added must all compile and verify.
func TestCompileGeneralRandomWithBackEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		g := randsdf.Graph(rng, randsdf.Config{Actors: 4 + rng.Intn(8)})
		q, err := g.Repetitions()
		if err != nil {
			t.Fatal(err)
		}
		// Add a back edge with a full period of delay (keeps consistency:
		// rates derived from q, delay = TNSE of the new edge).
		src := sdf.ActorID(rng.Intn(g.NumActors()))
		dst := sdf.ActorID(rng.Intn(g.NumActors()))
		if src == dst {
			continue
		}
		gg := gcd64t(q[src], q[dst])
		prod, cons := q[dst]/gg, q[src]/gg
		g.AddEdge(src, dst, prod, cons, prod*q[src])
		res, err := CompileGeneral(g, Options{Strategy: APGAN, Verify: true, VerifyPeriods: 2})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.Schedule.Validate(res.Repetitions); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func gcd64t(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func TestCompileGeneralEchoCanceller(t *testing.T) {
	g := systems.EchoCanceller()
	res, err := CompileGeneral(g, Options{Verify: true, VerifyPeriods: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.IsSingleAppearance() {
		t.Log("note: cyclic path produced a single appearance schedule")
	}
	if err := res.Schedule.Validate(res.Repetitions); err != nil {
		t.Fatal(err)
	}
	if res.Metrics.SharedTotal <= 0 || res.Metrics.SharedTotal > res.Metrics.NonSharedBufMem {
		t.Errorf("shared %d vs non-shared %d", res.Metrics.SharedTotal, res.Metrics.NonSharedBufMem)
	}
}

func TestCompileGeneralRejectsCustomOrderOnCyclic(t *testing.T) {
	g := systems.EchoCanceller()
	q, _ := g.Repetitions()
	order := make([]sdf.ActorID, g.NumActors())
	for i := range order {
		order[i] = sdf.ActorID(i)
	}
	_ = q
	if _, err := CompileGeneral(g, Options{Strategy: CustomOrder, Order: order}); err == nil {
		t.Error("custom order accepted on a cyclic graph")
	}
}

func TestCompileGeneralMergingUnsupportedPath(t *testing.T) {
	// Merging flows through the acyclic path only; on the cyclic path the
	// option is currently ignored (documented behaviour) — the result must
	// still be valid and MergedTotal must mirror SharedTotal.
	g := systems.EchoCanceller()
	res, err := CompileGeneral(g, Options{Merging: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.MergedTotal != res.Metrics.SharedTotal {
		t.Errorf("cyclic path merged total %d diverges from shared %d",
			res.Metrics.MergedTotal, res.Metrics.SharedTotal)
	}
}
