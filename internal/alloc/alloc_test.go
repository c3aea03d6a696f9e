package alloc

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/lifetime"
)

func solid(name string, size, start, dur int64) *lifetime.Interval {
	return &lifetime.Interval{Name: name, Size: size, Start: start, Dur: dur}
}

func TestDisjointShareMemory(t *testing.T) {
	a := solid("a", 10, 0, 5)
	b := solid("b", 10, 5, 5) // disjoint from a
	for _, strat := range []Strategy{FirstFitDuration, FirstFitStart, BestFitDuration} {
		res := Allocate([]*lifetime.Interval{a, b}, strat)
		if res.Total != 10 {
			t.Errorf("%v: total = %d, want 10 (full sharing)", strat, res.Total)
		}
		if err := res.Verify(); err != nil {
			t.Errorf("%v: %v", strat, err)
		}
	}
}

func TestOverlappingStack(t *testing.T) {
	a := solid("a", 10, 0, 10)
	b := solid("b", 7, 5, 10)
	res := Allocate([]*lifetime.Interval{a, b}, FirstFitStart)
	if res.Total != 17 {
		t.Errorf("total = %d, want 17", res.Total)
	}
	if err := res.Verify(); err != nil {
		t.Error(err)
	}
}

func TestFirstFitFillsGap(t *testing.T) {
	// a [0,10) size 4, b [0,10) size 4 at offset 4, c overlaps only b's
	// time? Construct: a dies at 5; c starts at 5 and overlaps b in time but
	// not a, so first-fit should reuse a's cells for c.
	a := solid("a", 4, 0, 5)
	b := solid("b", 4, 0, 10)
	c := solid("c", 4, 5, 5)
	res := Allocate([]*lifetime.Interval{a, b, c}, FirstFitStart)
	if res.Total != 8 {
		t.Errorf("total = %d, want 8 (c reuses a's space)", res.Total)
	}
	if err := res.Verify(); err != nil {
		t.Error(err)
	}
}

func TestPeriodicInterleavingShares(t *testing.T) {
	// The Fig. 17 pair: disjoint periodic lifetimes share one location.
	ab := &lifetime.Interval{Name: "AB", Size: 6, Start: 0, Dur: 2,
		Periods: []lifetime.Period{{A: 4, Count: 2}, {A: 9, Count: 2}}}
	cd := &lifetime.Interval{Name: "CD", Size: 6, Start: 2, Dur: 2,
		Periods: []lifetime.Period{{A: 4, Count: 2}, {A: 9, Count: 2}}}
	res := Allocate([]*lifetime.Interval{ab, cd}, FirstFitDuration)
	if res.Total != 6 {
		t.Errorf("total = %d, want 6 (periodic sharing)", res.Total)
	}
	if err := res.Verify(); err != nil {
		t.Error(err)
	}
}

func TestBestFitPrefersTightGap(t *testing.T) {
	// Busy ranges [0,3) and [5,6): placing size 2 best-fit should go at 3
	// (gap of exactly 2) rather than 6.
	if got := bestFit([]memRange{{0, 3}, {5, 6}}, 2); got != 3 {
		t.Errorf("bestFit = %d, want 3", got)
	}
	// No gap fits: append at end.
	if got := bestFit([]memRange{{0, 3}, {4, 6}}, 2); got != 6 {
		t.Errorf("bestFit = %d, want 6", got)
	}
	if got := firstFit([]memRange{{2, 4}}, 2); got != 0 {
		t.Errorf("firstFit = %d, want 0", got)
	}
}

func TestStrategyString(t *testing.T) {
	if FirstFitDuration.String() != "ffdur" || FirstFitStart.String() != "ffstart" ||
		BestFitDuration.String() != "bfdur" {
		t.Error("strategy names changed")
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy should still render")
	}
}

func TestAllocationNeverBelowMCW(t *testing.T) {
	// The allocation can never use less memory than the pessimistic clique
	// bound restricted to simultaneously-live solid intervals.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var ivs []*lifetime.Interval
		n := 2 + rng.Intn(8)
		for i := 0; i < n; i++ {
			ivs = append(ivs, solid(string(rune('a'+i)), 1+int64(rng.Intn(9)),
				int64(rng.Intn(20)), 1+int64(rng.Intn(10))))
		}
		mcw, _ := lifetime.CliqueWeights(ivs)
		for _, strat := range []Strategy{FirstFitDuration, FirstFitStart, BestFitDuration} {
			res := Allocate(ivs, strat)
			if err := res.Verify(); err != nil {
				t.Fatalf("trial %d %v: %v", trial, strat, err)
			}
			if res.Total < mcw {
				t.Fatalf("trial %d %v: total %d below clique weight %d", trial, strat, res.Total, mcw)
			}
		}
	}
}

// TestAllocateFeasibleQuick property: any random set of periodic intervals
// yields a Verify-clean allocation no larger than the sum of sizes.
func TestAllocateFeasibleQuick(t *testing.T) {
	f := func(seeds [6]uint16) bool {
		var ivs []*lifetime.Interval
		var sum int64
		for i, s := range seeds {
			size := 1 + int64(s%7)
			start := int64((s >> 3) % 16)
			dur := 1 + int64((s>>7)%5)
			iv := &lifetime.Interval{Name: string(rune('a' + i)), Size: size, Start: start, Dur: dur}
			if s%3 == 0 {
				iv.Periods = []lifetime.Period{{A: dur + int64(s%4), Count: 2 + int64(s%2)}}
			}
			if iv.Validate() != nil {
				continue
			}
			ivs = append(ivs, iv)
			sum += size
		}
		if len(ivs) == 0 {
			return true
		}
		for _, strat := range []Strategy{FirstFitDuration, FirstFitStart, BestFitDuration} {
			res := Allocate(ivs, strat)
			if res.Verify() != nil || res.Total > sum || res.Total <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestOffsetOf(t *testing.T) {
	a := solid("a", 3, 0, 5)
	res := Allocate([]*lifetime.Interval{a}, FirstFitStart)
	off, ok := res.OffsetOf(a)
	if !ok || off != 0 {
		t.Errorf("OffsetOf = %d,%v", off, ok)
	}
	if _, ok := res.OffsetOf(solid("x", 1, 0, 1)); ok {
		t.Error("OffsetOf found an interval that was never allocated")
	}
}

// TestAllocateMatchesScanQuick: on random periodic instances the shared-WIG
// allocator places every interval where the per-enumeration oracle does.
func TestAllocateMatchesScanQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		var ivs []*lifetime.Interval
		for len(ivs) < 1+trial%40 {
			iv := solid("r", 1+rng.Int63n(9), rng.Int63n(30), 1+rng.Int63n(6))
			if rng.Intn(2) == 0 {
				iv.Periods = []lifetime.Period{{A: iv.Dur + rng.Int63n(4), Count: 2 + rng.Int63n(3)}}
			}
			ivs = append(ivs, iv)
		}
		for _, strat := range []Strategy{FirstFitDuration, FirstFitStart, BestFitDuration} {
			got, want := Allocate(ivs, strat), allocateScan(ivs, strat)
			if got.Total != want.Total || !slices.Equal(got.Placements, want.Placements) {
				t.Fatalf("trial %d %v: total %d, oracle %d; placements differ", trial, strat, got.Total, want.Total)
			}
		}
	}
}

// TestVerifyCatchesOverlap: Verify reads the shared WIG through the
// enumeration and reports a moved placement that collides in memory.
func TestVerifyCatchesOverlap(t *testing.T) {
	a, b, c := solid("a", 4, 0, 10), solid("b", 4, 5, 10), solid("c", 4, 20, 5)
	for _, strat := range []Strategy{FirstFitDuration, FirstFitStart} {
		res := Allocate([]*lifetime.Interval{a, b, c}, strat)
		if err := res.Verify(); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		for k := range res.Placements {
			res.Placements[k].Offset = 0
		}
		if err := res.Verify(); err == nil {
			t.Errorf("%v: Verify accepted a and b at one address", strat)
		}
	}
}
