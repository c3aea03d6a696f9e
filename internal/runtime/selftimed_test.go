package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/num"
	"repro/internal/randsdf"
	"repro/internal/sdf"
)

// crossChain is A -> B with B folding three of A's tokens, so at P>=2 the
// partitioner puts A on worker 0 and B on worker 1 and B needs all of A's
// period before it can fire.
func crossChain(t *testing.T, p int) (*sdf.Graph, *core.Result, sdf.ActorID) {
	t.Helper()
	g := sdf.New("cross")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(a, b, 1, 3, 0)
	res, err := core.Compile(g, core.Options{Partitions: p})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition.Assign[a] != 0 || res.Partition.Assign[b] != 1 {
		t.Fatalf("P=%d: A on worker %d, B on worker %d; want 0 and 1", p, res.Partition.Assign[a], res.Partition.Assign[b])
	}
	return g, res, a
}

// TestSelfTimedProducerStops: B on worker 1 waits on A's tokens while A, on
// worker 0, fails, panics or calls runtime.Goexit on its second firing,
// after a pause long enough for B to park. RunPeriod must report worker 0's
// failure within the guard, and no goroutine may outlive it.
func TestSelfTimedProducerStops(t *testing.T) {
	stops := []struct {
		name string
		stop func() [][]float64
		want func(t *testing.T, got any)
	}{
		{"error", func() [][]float64 { return nil }, func(t *testing.T, got any) {
			err, _ := got.(error)
			if err == nil || !strings.Contains(err.Error(), "worker 0 ") || !strings.Contains(err.Error(), "output vectors") {
				t.Errorf("got %v, want worker 0's arity error", got)
			}
		}},
		{"panic", func() [][]float64 { panic("A stops") }, func(t *testing.T, got any) {
			if got != "A stops" {
				t.Errorf("recovered %v, want worker 0's panic value", got)
			}
		}},
		{"goexit", func() [][]float64 { goruntime.Goexit(); return nil }, func(t *testing.T, got any) {
			err, _ := got.(error)
			if err == nil || !strings.Contains(err.Error(), "worker 0:") || !strings.Contains(err.Error(), "Goexit") {
				t.Errorf("got %v, want worker 0's Goexit error", got)
			}
		}},
	}
	for _, p := range []int{2, 4} {
		for _, s := range stops {
			t.Run(fmt.Sprintf("P%d/%s", p, s.name), func(t *testing.T) {
				_, res, a := crossChain(t, p)
				firing := 0
				eng, err := NewPhased(res, map[sdf.ActorID]Fire{a: func([][]float64) [][]float64 {
					if firing++; firing == 2 {
						time.Sleep(20 * time.Millisecond)
						return s.stop()
					}
					return [][]float64{{1}}
				}})
				if err != nil {
					t.Fatal(err)
				}
				before := goruntime.NumGoroutine()
				done := make(chan any, 2)
				go func() {
					defer func() {
						if r := recover(); r != nil {
							done <- r
						}
					}()
					done <- eng.RunPeriod()
				}()
				select {
				case got := <-done:
					s.want(t, got)
				case <-time.After(10 * time.Second):
					t.Fatal("RunPeriod deadlocked after the producer stopped")
				}
				waitGoroutines(t, before)
			})
		}
	}
}

// TestSelfTimedWaitsForReads seeds a delay-broken edge A -> B with two
// tokens beyond its delay, so its buffer starts full. B reads on one worker
// in phase 0 on old tokens while A, on the other worker in phase 1, must
// wait for both of B's reads before it writes over the cells they free. B's
// first firing is slow, so that A does wait.
func TestSelfTimedWaitsForReads(t *testing.T) {
	g := sdf.New("refill")
	x := g.AddActor("X")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(x, a, 1, 1, 0)
	e := g.AddEdge(a, b, 2, 1, 2)
	res, err := core.Compile(g, core.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	part := res.Partition
	if part.Assign[a] == part.Assign[b] || part.PhaseOf[a] <= part.PhaseOf[b] {
		t.Fatalf("A at (worker %d, phase %d), B at (%d, %d): want B on another worker, in an earlier phase",
			part.Assign[a], part.PhaseOf[a], part.Assign[b], part.PhaseOf[b])
	}
	n := 0.0
	var seen []float64
	eng, err := NewPhased(res, map[sdf.ActorID]Fire{
		a: func([][]float64) [][]float64 {
			n += 10
			return [][]float64{{n, n + 1}}
		},
		b: func(in [][]float64) [][]float64 {
			if len(seen) == 0 {
				time.Sleep(5 * time.Millisecond)
			}
			seen = append(seen, in[0][0])
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Push(e, 7, 8); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if err := eng.RunPeriod(); err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
	}
	if want := []float64{0, 0, 7, 8, 10, 11}; !slices.Equal(seen, want) {
		t.Errorf("B consumed %v, want %v", seen, want)
	}
	if got, want := eng.TokensOn(e), []float64{20, 21, 30, 31}; !slices.Equal(got, want) {
		t.Errorf("A->B holds %v, want %v", got, want)
	}
}

// jitterFires is the partition differential's actor behaviour (the input
// sum plus per-actor and per-firing stamps) with a busy loop of spin[a]
// iterations per firing, so the workers drift against each other.
func jitterFires(g *sdf.Graph, spin []int, sink []float64) map[sdf.ActorID]Fire {
	fires := map[sdf.ActorID]Fire{}
	for _, a := range g.Actors() {
		id := a.ID
		firing := 0
		fires[id] = func(inputs [][]float64) [][]float64 {
			var acc float64
			for _, in := range inputs {
				for _, v := range in {
					acc += v
				}
			}
			x := acc
			for k := 0; k < spin[id]; k++ {
				x = x*1.0000001 + 0.5
			}
			sink[id] = x
			firing++
			outs := make([][]float64, len(g.Out(id)))
			for oi, eid := range g.Out(id) {
				vals := make([]float64, g.Edge(eid).Prod)
				for i := range vals {
					vals[i] = acc + float64(i) + float64(id+1)*0.5 + float64(firing)*0.25
				}
				outs[oi] = vals
			}
			return outs
		}
	}
	return fires
}

// TestSelfTimedJitter runs the partition differential's random graphs at
// P in {2, 4} with a seeded busy loop per actor, and requires every edge's
// queue to equal the sequential engine's after every period.
func TestSelfTimedJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for i := 0; i < trials; i++ {
		g := randsdf.Graph(rng, randsdf.Config{Actors: 3 + rng.Intn(14), DelayProb: 0.4})
		spin := make([]int, g.NumActors())
		for a := range spin {
			spin[a] = rng.Intn(4) * 300
		}
		seq, err := core.Compile(g, core.Options{})
		if errors.Is(err, num.ErrOverflow) {
			continue
		} else if err != nil {
			t.Fatalf("rand%d: %v", i, err)
		}
		for _, p := range []int{2, 4} {
			res, err := core.Compile(g, core.Options{Partitions: p})
			if err != nil {
				t.Fatalf("rand%d/p%d: %v", i, p, err)
			}
			seqEng, err := New(seq, jitterFires(g, make([]int, len(spin)), make([]float64, len(spin))))
			if err != nil {
				t.Fatal(err)
			}
			parEng, err := NewPhased(res, jitterFires(g, spin, make([]float64, len(spin))))
			if err != nil {
				t.Fatal(err)
			}
			for period := 0; period < 3; period++ {
				if err := seqEng.RunPeriod(); err != nil {
					t.Fatalf("rand%d/p%d: sequential period %d: %v", i, p, period, err)
				}
				if err := parEng.RunPeriod(); err != nil {
					t.Fatalf("rand%d/p%d: phased period %d: %v", i, p, period, err)
				}
				for _, e := range g.Edges() {
					if sq, pq := seqEng.TokensOn(e.ID), parEng.TokensOn(e.ID); !slices.Equal(sq, pq) {
						t.Fatalf("rand%d/p%d: period %d edge %d: sequential %v, phased %v", i, p, period, e.ID, sq, pq)
					}
				}
			}
		}
	}
}
