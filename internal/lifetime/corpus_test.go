package lifetime_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lifetime"
	"repro/internal/randsdf"
	"repro/internal/systems"
)

// corpusLifetimes compiles the Table-1 systems and seeded random graphs
// under both order heuristics, once per test binary, and returns each
// compile's intervals, in edge-ID order, by label.
func corpusLifetimes(t *testing.T) map[string][]*lifetime.Interval {
	t.Helper()
	out, err := corpusOnce()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var corpusOnce = sync.OnceValues(func() (map[string][]*lifetime.Interval, error) {
	graphs := systems.Table1Systems()
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		for _, n := range []int{20, 39, 57, 76, 94, 113, 131, 150} {
			graphs = append(graphs, randsdf.Graph(rng, randsdf.Config{Actors: n}))
		}
	}
	out := map[string][]*lifetime.Interval{}
	for i, g := range graphs {
		for _, strat := range []core.OrderStrategy{core.RPMC, core.APGAN} {
			res, err := core.Compile(g, core.Options{Strategy: strat})
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", g.Name, strat, err)
			}
			out[fmt.Sprintf("%d:%s/%v", i, g.Name, strat)] = res.Intervals
		}
	}
	return out, nil
})

// TestWIGCorpusDifferential: the one edge-indexed WIG, read through each
// allocator's enumeration, has exactly the adjacency the enumeration
// oracle builds over that enumeration, on every corpus compile.
func TestWIGCorpusDifferential(t *testing.T) {
	for label, ivs := range corpusLifetimes(t) {
		w := lifetime.BuildWIG(ivs)
		for _, enum := range []struct {
			name  string
			order func([]*lifetime.Interval) []int32
		}{{"ffdur", lifetime.ByDuration}, {"ffstart", lifetime.ByStart}} {
			ids := enum.order(ivs)
			rank := make([]int32, len(ids))
			enumerated := make([]*lifetime.Interval, len(ids))
			for k, i := range ids {
				rank[i] = int32(k)
				enumerated[k] = ivs[i]
			}
			want, ok := lifetime.BuildWIGScan(enumerated)
			if !ok {
				t.Fatalf("%s: a pair is beyond the oracle's cap", label)
			}
			for k, i := range ids {
				var got []int32
				for _, j := range w.Neighbors(int(i)) {
					got = append(got, rank[j])
				}
				slices.Sort(got)
				if !slices.Equal(got, want[k]) {
					t.Fatalf("%s/%s: node %d neighbours %v, oracle %v", label, enum.name, k, got, want[k])
				}
			}
		}
	}
}

// TestCliqueWeightsCorpus: the sweep computes the same mco and mcp as the
// all-pairs scans on every corpus compile.
func TestCliqueWeightsCorpus(t *testing.T) {
	for label, ivs := range corpusLifetimes(t) {
		o, p := lifetime.CliqueWeights(ivs)
		if want := lifetime.MCWOptimisticScan(ivs); o != want {
			t.Errorf("%s: mco = %d, scan %d", label, o, want)
		}
		if want := lifetime.MCWPessimisticScan(ivs); p != want {
			t.Errorf("%s: mcp = %d, scan %d", label, p, want)
		}
	}
}
