package alloc_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/randsdf"
	"repro/internal/systems"
)

// TestAllocateCorpusDifferential: packing over the one shared, edge-indexed
// WIG places every interval exactly where the per-enumeration oracle does,
// for every strategy, on the Table-1 systems and seeded random graphs under
// both order heuristics.
func TestAllocateCorpusDifferential(t *testing.T) {
	graphs := systems.Table1Systems()
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{20, 39, 57, 76, 94, 113, 131, 150} {
		graphs = append(graphs, randsdf.Graph(rng, randsdf.Config{Actors: n}))
	}
	strats := []alloc.Strategy{alloc.FirstFitDuration, alloc.FirstFitStart, alloc.BestFitDuration}
	for _, g := range graphs {
		for _, order := range []core.OrderStrategy{core.RPMC, core.APGAN} {
			res, err := core.Compile(g, core.Options{Strategy: order})
			if err != nil {
				t.Fatalf("%s/%v: %v", g.Name, order, err)
			}
			for _, strat := range strats {
				got, want := alloc.Allocate(res.Intervals, strat), alloc.AllocateScan(res.Intervals, strat)
				if got.Total != want.Total || !slices.Equal(got.Placements, want.Placements) {
					t.Fatalf("%s/%v/%v: total %d, oracle %d; placements differ", g.Name, order, strat, got.Total, want.Total)
				}
				if err := got.Verify(); err != nil {
					t.Fatalf("%s/%v/%v: %v", g.Name, order, strat, err)
				}
			}
		}
	}
}
