// Package alloc implements dynamic storage allocation (DSA) of buffer
// lifetimes into a single shared memory space (Sec. 9): the first-fit
// heuristic of Fig. 19 over an enumerated instance, with the two enumeration
// orders evaluated in the paper (by decreasing duration, "ffdur", and by
// start time, "ffstart"), plus a best-fit variant used for ablation.
package alloc

import (
	"fmt"

	"repro/internal/lifetime"
)

// Strategy selects the placement policy and enumeration order.
type Strategy int

const (
	// FirstFitDuration enumerates intervals by decreasing lifetime span and
	// places each at the lowest feasible address. The paper's best performer.
	FirstFitDuration Strategy = iota
	// FirstFitStart enumerates intervals by increasing start time.
	FirstFitStart
	// BestFitDuration places each interval (duration order) into the
	// feasible gap wasting the least space; ablation only.
	BestFitDuration
)

// String returns the paper's abbreviation for the strategy.
func (s Strategy) String() string {
	switch s {
	case FirstFitDuration:
		return "ffdur"
	case FirstFitStart:
		return "ffstart"
	case BestFitDuration:
		return "bfdur"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Placement is the allocation of one interval.
type Placement struct {
	Interval *lifetime.Interval
	Offset   int64
}

// Allocation is the result of storage allocation: a placement per interval
// and the total memory required.
type Allocation struct {
	Placements []Placement
	Total      int64
	// wig is the intersection graph the allocation was packed over and
	// ids[k] is the node of Placements[k]; Verify walks its adjacency instead
	// of re-deriving the pairwise intersection tests.
	wig *lifetime.WIG
	ids []int32
}

// OffsetOf returns the assigned offset of the given interval.
func (a *Allocation) OffsetOf(iv *lifetime.Interval) (int64, bool) {
	for _, p := range a.Placements {
		if p.Interval == iv {
			return p.Offset, true
		}
	}
	return 0, false
}

// memRange is a half-open occupied address range [Lo, Hi).
type memRange struct{ lo, hi int64 }

// Allocate packs the intervals into shared memory with the given strategy.
// The input slice is not modified.
func Allocate(intervals []*lifetime.Interval, strat Strategy) *Allocation {
	return AllocateWIG(lifetime.BuildWIG(intervals), strat)
}

// enumerate returns the indices of intervals in strat's enumeration order
// (decreasing duration for ffdur/bfdur, increasing start time for ffstart);
// ties keep index order.
func enumerate(intervals []*lifetime.Interval, strat Strategy) []int32 {
	switch strat {
	case FirstFitStart:
		return lifetime.ByStart(intervals)
	case FirstFitDuration, BestFitDuration:
		return lifetime.ByDuration(intervals)
	}
	ids := make([]int32, len(intervals))
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// AllocateWIG packs the intervals of w in strat's enumeration order. The
// graph is only read, so callers compiling a grid may share one WIG across
// every strategy: intersection does not depend on the enumeration.
// Placements are in enumeration order.
func AllocateWIG(w *lifetime.WIG, strat Strategy) *Allocation {
	ivs := w.Intervals
	ids := enumerate(ivs, strat)
	// Offsets are indexed by node, like the graph. byAddr lists the placed
	// nodes by ascending offset, and mark[j] == k+1 flags j as a neighbour
	// of the k-th placed interval, so one scan of byAddr yields the address
	// ranges first fit must avoid, already sorted.
	offsets := make([]int64, len(ivs))
	byAddr := make([]int32, 0, len(ivs))
	mark := make([]int32, len(ivs))
	busy := make([]memRange, 0, len(ivs))
	var total int64
	for k, i := range ids {
		iv := ivs[i]
		stamp := int32(k + 1)
		for _, j := range w.Neighbors(int(i)) {
			mark[j] = stamp
		}
		busy = busy[:0]
		for _, j := range byAddr {
			if mark[j] == stamp {
				busy = append(busy, memRange{offsets[j], offsets[j] + ivs[j].Size})
			}
		}
		var off int64
		if strat == BestFitDuration {
			off = bestFit(busy, iv.Size)
		} else {
			off = firstFit(busy, iv.Size)
		}
		offsets[i] = off
		if off+iv.Size > total {
			total = off + iv.Size
		}
		// Insert i after every placed node at an offset <= off.
		lo, hi := 0, len(byAddr)
		for lo < hi {
			mid := (lo + hi) / 2
			if offsets[byAddr[mid]] <= off {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		byAddr = append(byAddr, 0)
		copy(byAddr[lo+1:], byAddr[lo:])
		byAddr[lo] = i
	}
	res := &Allocation{Total: total, Placements: make([]Placement, len(ids)), wig: w, ids: ids}
	for k, i := range ids {
		res.Placements[k] = Placement{Interval: ivs[i], Offset: offsets[i]}
	}
	return res
}

// firstFit returns the lowest address where size cells fit between the
// sorted busy ranges.
func firstFit(busy []memRange, size int64) int64 {
	var off int64
	for _, r := range busy {
		if off+size <= r.lo {
			break
		}
		if r.hi > off {
			off = r.hi
		}
	}
	return off
}

// bestFit returns the offset of the smallest gap between busy ranges that
// fits size, falling back to the end of the occupied space.
func bestFit(busy []memRange, size int64) int64 {
	var merged []memRange
	for _, r := range busy {
		if n := len(merged); n > 0 && r.lo <= merged[n-1].hi {
			if r.hi > merged[n-1].hi {
				merged[n-1].hi = r.hi
			}
			continue
		}
		merged = append(merged, r)
	}
	bestOff := int64(-1)
	var bestWaste int64
	var cur int64
	for _, r := range merged {
		if gap := r.lo - cur; gap >= size {
			if waste := gap - size; bestOff < 0 || waste < bestWaste {
				bestOff, bestWaste = cur, waste
			}
		}
		if r.hi > cur {
			cur = r.hi
		}
	}
	if bestOff >= 0 {
		return bestOff
	}
	return cur
}

// Verify checks that no two time-intersecting intervals overlap in memory.
// It returns nil for a feasible allocation. When the allocation carries its
// intersection graph the intersecting pairs are read off the adjacency lists;
// re-deriving them is the fallback for allocations assembled without one.
func (a *Allocation) Verify() error {
	if a.wig != nil && len(a.ids) == len(a.Placements) {
		at := make([]int32, len(a.ids)) // placement index of each node
		for k, i := range a.ids {
			at[i] = int32(k)
		}
		for i := range at {
			for _, j := range a.wig.Neighbors(i) {
				if int(j) <= i {
					continue
				}
				if err := a.checkPair(int(at[i]), int(at[j])); err != nil {
					return err
				}
			}
		}
		return a.checkBounds()
	}
	for i := 0; i < len(a.Placements); i++ {
		for j := i + 1; j < len(a.Placements); j++ {
			if !lifetime.Intersects(a.Placements[i].Interval, a.Placements[j].Interval) {
				continue
			}
			if err := a.checkPair(i, j); err != nil {
				return err
			}
		}
	}
	return a.checkBounds()
}

// checkPair reports the memory-overlap error of the time-intersecting pair
// (i, j), or nil when their address ranges are disjoint.
func (a *Allocation) checkPair(i, j int) error {
	pi, pj := a.Placements[i], a.Placements[j]
	if pi.Offset < pj.Offset+pj.Interval.Size && pj.Offset < pi.Offset+pi.Interval.Size {
		return fmt.Errorf("alloc: %s @%d and %s @%d overlap in time and memory",
			pi.Interval.Name, pi.Offset, pj.Interval.Name, pj.Offset)
	}
	return nil
}

func (a *Allocation) checkBounds() error {
	for _, p := range a.Placements {
		if p.Offset < 0 || p.Offset+p.Interval.Size > a.Total {
			return fmt.Errorf("alloc: %s @%d exceeds total %d", p.Interval.Name, p.Offset, a.Total)
		}
	}
	return nil
}
