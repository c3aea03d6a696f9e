package core

import (
	"context"
	"errors"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"

	"repro/internal/pass"
	"repro/internal/sdf"
)

func chainGraph() *sdf.Graph {
	g := sdf.New("ctxchain")
	a := g.AddActor("A")
	b := g.AddActor("B")
	c := g.AddActor("C")
	g.AddEdge(a, b, 3, 2, 0)
	g.AddEdge(b, c, 5, 7, 0)
	return g
}

// cycleGraph is a multirate feedback loop whose back-edge delay stays below
// one period's consumption, so {A, B} is strongly connected in the
// precedence graph and compilation takes the cyclic path.
func cycleGraph() *sdf.Graph {
	g := sdf.New("ctxcycle")
	src := g.AddActor("src")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(src, a, 2, 1, 0)
	g.AddEdge(a, b, 3, 2, 0)
	g.AddEdge(b, a, 2, 3, 4)
	return g
}

// countdownCtx is a context whose Err turns non-nil at its k-th call and
// stays so: cancellation lands exactly at the k-th checkpoint, with no hook
// inside the pipeline. Plan levels check from several goroutines, hence the
// atomic counter.
type countdownCtx struct {
	context.Context
	k     int64
	calls atomic.Int64
}

func cancelAt(k int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), k: int64(k)}
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) >= c.k {
		return context.Canceled
	}
	return nil
}

var abortRE = regexp.MustCompile(`^(core: condensation: )?core: aborted (?:before (\w+) pass|scheduling component \d+): context canceled$`)

// abortKinds compiles with cancellation at the k-th checkpoint for k = 1,
// 2, ... until compilation succeeds, and returns the pass kind each abort
// error names, in order. Aborts inside the cyclic path's condensation
// sub-compilation are prefixed "condensation/"; aborts between component
// schedules read "component".
func abortKinds(t *testing.T, compile func(ctx context.Context) error) []string {
	t.Helper()
	var kinds []string
	for k := 1; ; k++ {
		err := compile(cancelAt(k))
		if err == nil {
			return kinds
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: %v does not wrap context.Canceled", k, err)
		}
		m := abortRE.FindStringSubmatch(err.Error())
		if m == nil {
			t.Fatalf("k=%d: unexpected abort text %q", k, err)
		}
		kind := m[2]
		if kind == "" {
			kind = "component"
		}
		if m[1] != "" {
			kind = "condensation/" + kind
		}
		kinds = append(kinds, kind)
	}
}

func TestCompileContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileContext(ctx, chainGraph(), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled compile returned %v, want context.Canceled", err)
	}
}

func TestCompileContextMidPipelineCancel(t *testing.T) {
	// Repetitions, order, schedule and lifetimes pass their checkpoints;
	// the first allocator's does not.
	_, err := CompileContext(cancelAt(5), chainGraph(), Options{Verify: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-pipeline cancel returned %v, want context.Canceled", err)
	}
	if want := "core: aborted before alloc pass: context canceled"; err.Error() != want {
		t.Fatalf("mid-pipeline cancel returned %q, want %q", err, want)
	}
}

func TestCompileContextStageSequence(t *testing.T) {
	opts := Options{Verify: true, Merging: true}
	got := abortKinds(t, func(ctx context.Context) error {
		_, err := CompileContext(ctx, chainGraph(), opts)
		return err
	})
	// One checkpoint per pass, one per allocator, and the assemble
	// checkpoints before verification and merging.
	want := []string{"repetitions", "order", "schedule", "lifetimes", "alloc", "alloc", "assemble", "assemble"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("abort sequence %v, want %v", got, want)
	}
}

func TestCompileGeneralContextCyclicStages(t *testing.T) {
	g := cycleGraph()
	if q, err := g.Repetitions(); err != nil || g.IsAcyclic(q) {
		t.Fatalf("test graph should be consistent and cyclic (err %v)", err)
	}
	got := abortKinds(t, func(ctx context.Context) error {
		_, err := CompileGeneralContext(ctx, cycleGraph(), Options{Verify: true})
		return err
	})
	want := []string{
		"order", // the SCC condensation stands in for the order pass
		"condensation/repetitions", "condensation/order", "condensation/schedule",
		"condensation/lifetimes", "condensation/alloc", "condensation/alloc",
		"schedule", "component", "lifetimes", "alloc", "assemble",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cyclic abort sequence %v, want %v", got, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileGeneralContext(ctx, cycleGraph(), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cyclic compile returned %v, want context.Canceled", err)
	}
}

// TestPlanAbortParity: for every k, cancelling at the k-th checkpoint aborts
// the direct pipeline and a single-point Plan before the same pass kind with
// the same error text, and both succeed from the same k on — on the acyclic
// path with every checkpoint in use (partitions, verify, merge) and on the
// cyclic fallback.
func TestPlanAbortParity(t *testing.T) {
	for _, tc := range []struct {
		g      *sdf.Graph
		opts   Options
		direct func(context.Context, *sdf.Graph, Options) (*Result, error)
	}{
		{chainGraph(), Options{Verify: true, Merging: true, Partitions: 2}, CompileContext},
		{cycleGraph(), Options{Verify: true}, CompileGeneralContext},
	} {
		for k := 1; ; k++ {
			_, derr := tc.direct(cancelAt(k), tc.g, tc.opts)
			outs, err := pass.RunGridOutcomes(cancelAt(k), tc.g, []Options{tc.opts}, pass.PlanConfig{})
			if err != nil {
				t.Fatal(err)
			}
			perr := outs[0].Err
			if (derr == nil) != (perr == nil) {
				t.Fatalf("%s k=%d: direct err %v, plan err %v", tc.g.Name, k, derr, perr)
			}
			if derr == nil {
				break
			}
			if derr.Error() != perr.Error() {
				t.Errorf("%s k=%d: direct aborted with %q, plan with %q", tc.g.Name, k, derr, perr)
			}
		}
	}
}
