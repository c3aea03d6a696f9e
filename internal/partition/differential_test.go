package partition_test

// Differential property tests for the partitioned parallel pipeline: over a
// population of random SDF graphs (delay-carrying edges included) and
// P in {1, 2, 4},
//
//   - compiling with Partitions <= 1 yields service artifact bytes identical
//     to the pre-partitioning pipeline's,
//   - compiling with Partitions >= 2 passes both the sequential and the
//     phased token-level verifiers (Verify: true runs both), and
//   - the phased float64 engine's observable behaviour is bit-identical to
//     the sequential engine's, period by period.
//
// The whole file is race-clean by construction and is part of the
// `make parallel` -race sweep.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/num"
	"repro/internal/randsdf"
	"repro/internal/runtime"
	"repro/internal/sdf"
	"repro/internal/service"
)

// diffFires builds per-engine actor behaviours with per-actor state: output
// token i of firing n carries the input sum plus i plus a per-actor stamp.
// Each engine gets its own closure set (the counters are engine-local), and
// a phased Engine invokes one actor's Fire from a single worker goroutine, so
// the closures satisfy its sharing contract.
func diffFires(g *sdf.Graph) map[sdf.ActorID]runtime.Fire {
	fires := map[sdf.ActorID]runtime.Fire{}
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

// TestPhasedDifferential is the pinned acceptance property: >= 200 random
// graphs, each compiled sequentially and at P in {2, 4} with full
// verification, plus the runtime trace comparison and the P=1 byte-identity
// check.
func TestPhasedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	compiled := 0
	for i := 0; i < trials; i++ {
		g := randsdf.Graph(rng, randsdf.Config{
			Actors:    3 + rng.Intn(14),
			DelayProb: 0.4,
		})
		label := fmt.Sprintf("rand%d(%s)", i, g.Name)

		seq, err := core.Compile(g, core.Options{})
		if err != nil {
			// Random rate products can overflow the checked arithmetic;
			// those graphs are out of scope for every pipeline equally.
			if errors.Is(err, num.ErrOverflow) {
				continue
			}
			t.Fatalf("%s: sequential compile: %v", label, err)
		}

		// Partitions <= 1 must not perturb the artifact bytes.
		for _, p01 := range []int{0, 1} {
			res, err := core.Compile(g, core.Options{Partitions: p01})
			if err != nil {
				t.Fatalf("%s: compile with Partitions=%d: %v", label, p01, err)
			}
			if res.Partition != nil || res.Segmented != nil {
				t.Fatalf("%s: Partitions=%d materialized a partition artifact", label, p01)
			}
			a, err := service.ArtifactBytes(seq, service.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := service.ArtifactBytes(res, service.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Fatalf("%s: Partitions=%d artifact differs from the sequential pipeline's", label, p01)
			}
		}

		for _, workers := range []int{2, 4} {
			plabel := fmt.Sprintf("%s/p%d", label, workers)
			// Verify: true runs the sequential simulator AND the phased
			// simulator on P goroutines against the segmented image.
			res, err := core.Compile(g, core.Options{Partitions: workers, Verify: true})
			if err != nil {
				if errors.Is(err, num.ErrOverflow) {
					continue
				}
				t.Fatalf("%s: partitioned compile: %v", plabel, err)
			}
			if res.Partition == nil || res.Segmented == nil {
				t.Fatalf("%s: no partition artifact", plabel)
			}
			if res.Partition.P != workers {
				t.Fatalf("%s: partitioned into %d workers", plabel, res.Partition.P)
			}
			q := res.Repetitions
			checkInvariants(t, g, q, res.Partition, plabel)
			if res.Metrics.ParallelTotal != res.Segmented.Total {
				t.Errorf("%s: ParallelTotal %d != segmented total %d",
					plabel, res.Metrics.ParallelTotal, res.Segmented.Total)
			}

			comparePhasedTrace(t, res, plabel)
			compiled++
		}
	}
	if compiled < trials/2 {
		t.Fatalf("only %d partitioned compilations in %d trials; population too thin", compiled, trials)
	}
}

// comparePhasedTrace runs the sequential and the phased float64 engines on
// one partitioned result and requires bit-identical queue contents on every
// edge after every period.
func comparePhasedTrace(t *testing.T, res *core.Result, label string) {
	t.Helper()
	g := res.Graph
	seqEng, err := runtime.New(res, diffFires(g))
	if err != nil {
		t.Fatalf("%s: sequential engine: %v", label, err)
	}
	parEng, err := runtime.NewPhased(res, diffFires(g))
	if err != nil {
		t.Fatalf("%s: phased engine: %v", label, err)
	}
	const periods = 3
	for p := 0; p < periods; p++ {
		if err := seqEng.RunPeriod(); err != nil {
			t.Fatalf("%s: sequential period %d: %v", label, p, err)
		}
		if err := parEng.RunPeriod(); err != nil {
			t.Fatalf("%s: phased period %d: %v", label, p, err)
		}
		for _, e := range g.Edges() {
			sq := seqEng.TokensOn(e.ID)
			pq := parEng.TokensOn(e.ID)
			if len(sq) != len(pq) {
				t.Fatalf("%s: period %d edge %d: %d tokens sequentially, %d phased",
					label, p, e.ID, len(sq), len(pq))
			}
			for k := range sq {
				if sq[k] != pq[k] {
					t.Fatalf("%s: period %d edge %d token %d: sequential %v, phased %v",
						label, p, e.ID, k, sq[k], pq[k])
				}
			}
		}
	}
}

// TestPhasedEngineErrors pins the constructor contract.
func TestPhasedEngineErrors(t *testing.T) {
	g := sdf.New("pair")
	a := g.AddActor("a")
	b := g.AddActor("b")
	g.AddEdge(a, b, 1, 1, 0)
	res, err := core.Compile(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.NewPhased(res, nil); err == nil {
		t.Error("NewPhased accepted an unpartitioned result")
	}
}
