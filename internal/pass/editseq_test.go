// Edit-sequence differential property test for the persistent pass-node
// store: a warm store must be invisible in the output. Every artifact a
// store-assisted compile produces is compared byte-for-byte against a cold
// direct compile of the same graph, across a long sequence of single-point
// edits (renames, rate words, delays, new actors, reverts) that exercises
// every invalidation boundary in the key projection table.
//
// This lives in an external test package so it can render results through
// internal/service's canonical artifact encoding (the byte surface clients
// actually see) without an import cycle.
package pass_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/nodestore"
	"repro/internal/pass"
	"repro/internal/randsdf"
	"repro/internal/sdf"
	"repro/internal/service"
)

// graphSpec is a mutable description of an SDF graph; each edit rewrites
// the spec and rebuilds the graph from scratch, the way an editor session
// re-elaborates a model after a source change.
type graphSpec struct {
	actors []string
	edges  []edgeSpec
}

type edgeSpec struct {
	src, dst                 int
	prod, cons, delay, words int64
}

func specOf(g *sdf.Graph) *graphSpec {
	s := &graphSpec{}
	for _, a := range g.Actors() {
		s.actors = append(s.actors, a.Name)
	}
	for _, e := range g.Edges() {
		s.edges = append(s.edges, edgeSpec{
			src: int(e.Src), dst: int(e.Dst),
			prod: e.Prod, cons: e.Cons, delay: e.Delay, words: e.Words,
		})
	}
	return s
}

func (s *graphSpec) clone() *graphSpec {
	return &graphSpec{
		actors: append([]string(nil), s.actors...),
		edges:  append([]edgeSpec(nil), s.edges...),
	}
}

func (s *graphSpec) build() *sdf.Graph {
	g := sdf.New("editseq")
	for _, name := range s.actors {
		g.AddActor(name)
	}
	for _, e := range s.edges {
		id := g.AddEdge(sdf.ActorID(e.src), sdf.ActorID(e.dst), e.prod, e.cons, e.delay)
		if e.words > 0 {
			g.SetWords(id, e.words)
		}
	}
	return g
}

// mutate applies one random edit. Each branch crosses a different store
// invalidation boundary: renames invalidate nothing, words invalidate
// lifetimes (and flat schedules), delays invalidate ordering and below,
// new actors invalidate everything, reverts restore full reuse.
func (s *graphSpec) mutate(rng *rand.Rand, step int, base *graphSpec) *graphSpec {
	switch rng.Intn(5) {
	case 0: // rename an actor
		i := rng.Intn(len(s.actors))
		s.actors[i] = fmt.Sprintf("ren%d_%d", i, step)
	case 1: // resize an edge's sample words
		e := &s.edges[rng.Intn(len(s.edges))]
		e.words = 1 + int64(rng.Intn(8))
	case 2: // toggle initial tokens on an edge
		e := &s.edges[rng.Intn(len(s.edges))]
		if e.delay == 0 {
			e.delay = e.prod * int64(1+rng.Intn(2))
		} else {
			e.delay = 0
		}
	case 3: // grow the graph by a rate-1 sink actor
		src := rng.Intn(len(s.actors))
		s.actors = append(s.actors, fmt.Sprintf("n%d", step))
		s.edges = append(s.edges, edgeSpec{src: src, dst: len(s.actors) - 1, prod: 1, cons: 1, words: 1})
	case 4: // revert to the base model
		return base.clone()
	}
	return s
}

const editSequenceLen = 200

// TestStoreEditSequenceDifferential is the correctness pin for incremental
// recompilation: over a 200-edit sequence, store-assisted artifacts are
// byte-identical to cold direct compilation and check.Pipeline verdicts are
// unchanged. Run under -race (the CI incremental job does) to cover the
// plan's concurrent store probes.
func TestStoreEditSequenceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := specOf(randsdf.Graph(rng, randsdf.Config{Actors: 24, DelayProb: 0.2}))

	st, err := nodestore.Open(t.TempDir(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}

	// Two grid points per edit: the defaults, and the opposite corner of
	// the options space (different ordering, the words-sensitive flat
	// looping, the best-fit allocator).
	points := []struct {
		popt pass.Options
		wopt service.CompileOptions
	}{
		{pass.Options{}, service.CompileOptions{}},
		{
			pass.Options{Strategy: pass.APGAN, Looping: pass.FlatLoops, Allocators: []alloc.Strategy{alloc.BestFitDuration}},
			service.CompileOptions{Strategy: "apgan", Looping: "flat", Allocators: []string{"bfdur"}},
		},
	}
	popts := make([]pass.Options, len(points))
	for i, pt := range points {
		popts[i] = pt.popt
	}

	ctx := context.Background()
	spec := base.clone()
	totalLoaded, totalExecuted := 0, 0
	for step := 0; step < editSequenceLen; step++ {
		spec = spec.mutate(rng, step, base)
		g := spec.build()

		p, err := pass.NewPlan(g, popts, pass.PlanConfig{Store: st})
		if err != nil {
			t.Fatalf("edit %d: %v", step, err)
		}
		outs := p.Run(ctx)
		for _, kc := range p.Stats() {
			totalLoaded += kc.Loaded
			totalExecuted += kc.Executed
		}

		for i, pt := range points {
			direct, directErr := pass.CompileContext(ctx, g, pt.popt)
			if (directErr == nil) != (outs[i].Err == nil) {
				t.Fatalf("edit %d pt %d: direct err %v, store-assisted err %v", step, i, directErr, outs[i].Err)
			}
			if directErr != nil {
				if directErr.Error() != outs[i].Err.Error() {
					t.Fatalf("edit %d pt %d: error text diverged: %v vs %v", step, i, directErr, outs[i].Err)
				}
				continue
			}
			want, err := service.ArtifactBytes(direct, pt.wopt)
			if err != nil {
				t.Fatalf("edit %d pt %d: render direct: %v", step, i, err)
			}
			got, err := service.ArtifactBytes(outs[i].Result, pt.wopt)
			if err != nil {
				t.Fatalf("edit %d pt %d: render store-assisted: %v", step, i, err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("edit %d pt %d: store-assisted artifact differs from cold compile\ncold:  %s\nwarm:  %s", step, i, want, got)
			}

			directVerdict := check.Pipeline(direct, check.Options{})
			assistedVerdict := check.Pipeline(outs[i].Result, check.Options{})
			if (directVerdict == nil) != (assistedVerdict == nil) {
				t.Fatalf("edit %d pt %d: check.Pipeline verdicts diverged: %v vs %v", step, i, directVerdict, assistedVerdict)
			}
			if directVerdict != nil && directVerdict.Error() != assistedVerdict.Error() {
				t.Fatalf("edit %d pt %d: check.Pipeline verdict text diverged: %v vs %v", step, i, directVerdict, assistedVerdict)
			}
		}
	}

	if totalLoaded == 0 {
		t.Fatal("store was never hit across the edit sequence; incremental reuse is broken")
	}
	if stats := st.Stats(); stats.Hits == 0 || stats.Puts == 0 {
		t.Fatalf("store stats show no traffic: %+v", stats)
	}
	t.Logf("edit sequence: %d nodes loaded, %d executed, store %+v", totalLoaded, totalExecuted, st.Stats())
}

// TestStoreEditSequenceMetrics compares, over the same edit sequence, the
// Metrics of a fully loaded plan — the edit's second run, every stored node
// a store hit — with a cold CompileContext, field by field, at every loop
// hierarchy algorithm and at P = 0 and P = 2. The loaded metrics come from
// the lifetimes payload: a words edit that keeps the schedule key must
// still change BufMem, MCO and MCP.
func TestStoreEditSequenceMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := specOf(randsdf.Graph(rng, randsdf.Config{Actors: 24, DelayProb: 0.2}))

	st, err := nodestore.Open(t.TempDir(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	var points []pass.Options
	for i, la := range []pass.LoopAlg{pass.SDPPOLoops, pass.DPPOLoops, pass.ChainPreciseLoops, pass.FlatLoops} {
		strat := pass.RPMC
		if i%2 == 1 {
			strat = pass.APGAN
		}
		for _, parts := range []int{0, 2} {
			points = append(points, pass.Options{Strategy: strat, Looping: la, Partitions: parts})
		}
	}

	ctx := context.Background()
	spec := base.clone()
	compared := 0
	for step := 0; step < editSequenceLen; step++ {
		spec = spec.mutate(rng, step, base)
		g := spec.build()
		var loaded []pass.Outcome
		for run := 0; run < 2; run++ {
			p, err := pass.NewPlan(g, points, pass.PlanConfig{Store: st})
			if err != nil {
				t.Fatalf("edit %d: %v", step, err)
			}
			loaded = p.Run(ctx)
			if run == 0 {
				continue
			}
			for _, kc := range p.Stats() {
				if kc.Kind != pass.KindRepetitions && kc.Kind != pass.KindAssemble && kc.Executed != 0 {
					t.Fatalf("edit %d: second run executed %d %v nodes, want all loaded", step, kc.Executed, kc.Kind)
				}
			}
		}
		for i, pt := range points {
			cold, coldErr := pass.CompileContext(ctx, g, pt)
			if (coldErr == nil) != (loaded[i].Err == nil) {
				t.Fatalf("edit %d pt %d: cold err %v, loaded err %v", step, i, coldErr, loaded[i].Err)
			}
			if coldErr != nil {
				continue
			}
			if diff := diffMetrics(loaded[i].Result.Metrics, cold.Metrics); diff != "" {
				t.Fatalf("edit %d pt %d (%v/%v/P%d): loaded metrics differ from cold:%s",
					step, i, pt.Strategy, pt.Looping, pt.Partitions, diff)
			}
			if got, want := loaded[i].Result.PeriodLen, cold.PeriodLen; got != want {
				t.Fatalf("edit %d pt %d: loaded period %d, cold %d", step, i, got, want)
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no point compiled across the edit sequence")
	}
	t.Logf("%d loaded point results match cold metrics", compared)
}

// diffMetrics lists the Metrics fields on which loaded and cold differ.
func diffMetrics(loaded, cold pass.Metrics) string {
	lv, cv := reflect.ValueOf(loaded), reflect.ValueOf(cold)
	var out string
	for i := 0; i < lv.NumField(); i++ {
		if !reflect.DeepEqual(lv.Field(i).Interface(), cv.Field(i).Interface()) {
			out += fmt.Sprintf("\n  %s: loaded %v, cold %v", lv.Type().Field(i).Name, lv.Field(i), cv.Field(i))
		}
	}
	return out
}
