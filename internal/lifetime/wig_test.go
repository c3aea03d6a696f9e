package lifetime

import (
	"math/rand"
	"slices"
	"testing"
)

// randomInstance draws n valid intervals from randomNestedPair, so pairs
// share outer shifts as schedule-tree lifetimes do; sizes vary.
func randomInstance(rng *rand.Rand, n int) []*Interval {
	ivs := make([]*Interval, 0, n)
	for len(ivs) < n {
		a, b := randomNestedPair(rng)
		a.Size, b.Size = 1+rng.Int63n(9), 1+rng.Int63n(9)
		ivs = append(ivs, a, b)
	}
	return ivs[:n]
}

// TestBuildWIGRandom compares the bit-matrix WIG with the oracle adjacency
// on random instances, including ones wider than one 64-bit word.
func TestBuildWIGRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		ivs := randomInstance(rng, 1+rng.Intn(150))
		want, ok := buildWIGScan(ivs)
		if !ok {
			t.Fatal("random instance beyond the oracle's cap")
		}
		w := BuildWIG(ivs)
		for i := range ivs {
			if got := w.Neighbors(i); !slices.Equal(got, want[i]) {
				t.Fatalf("trial %d node %d: neighbours %v, oracle %v", trial, i, got, want[i])
			}
		}
	}
}

// TestCliqueWeightsRandom compares the sweep with the all-pairs scans on
// random instances with many shared start times.
func TestCliqueWeightsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		ivs := randomInstance(rng, rng.Intn(40))
		o, p := CliqueWeights(ivs)
		if want := mcwOptimisticScan(ivs); o != want {
			t.Fatalf("trial %d: mco = %d, scan %d", trial, o, want)
		}
		if want := mcwPessimisticScan(ivs); p != want {
			t.Fatalf("trial %d: mcp = %d, scan %d", trial, p, want)
		}
	}
}
