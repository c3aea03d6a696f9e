package alloc

import (
	"sort"

	"repro/internal/lifetime"
)

// allocateScan is the reference allocator the tests compare AllocateWIG
// against: the intervals are stably sorted into enumeration order (by
// comparison, not by precomputed keys), the intersection
// graph is rebuilt over that copy from pairwise lifetime.Intersects, and
// each interval collects its placed neighbours by scanning its own
// adjacency list, inserting each range at its sorted position.
func allocateScan(intervals []*lifetime.Interval, strat Strategy) *Allocation {
	order := append([]*lifetime.Interval(nil), intervals...)
	switch strat {
	case FirstFitStart:
		sort.SliceStable(order, func(i, j int) bool {
			a, b := order[i], order[j]
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			return a.Dur > b.Dur
		})
	case FirstFitDuration, BestFitDuration:
		sort.SliceStable(order, func(i, j int) bool {
			a, b := order[i], order[j]
			if da, db := a.End()-a.Start, b.End()-b.Start; da != db {
				return da > db
			}
			return a.Start < b.Start
		})
	}
	adj := make([][]int, len(order))
	for i := range order {
		for j := i + 1; j < len(order); j++ {
			if lifetime.Intersects(order[i], order[j]) {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	offsets := make([]int64, len(order))
	placed := make([]bool, len(order))
	var total int64
	var busy []memRange
	for i, iv := range order {
		busy = busy[:0]
		for _, j := range adj[i] {
			if !placed[j] {
				continue
			}
			r := memRange{offsets[j], offsets[j] + order[j].Size}
			lo := len(busy)
			for lo > 0 && busy[lo-1].lo > r.lo {
				lo--
			}
			busy = append(busy, memRange{})
			copy(busy[lo+1:], busy[lo:])
			busy[lo] = r
		}
		var off int64
		if strat == BestFitDuration {
			off = bestFit(busy, iv.Size)
		} else {
			off = firstFit(busy, iv.Size)
		}
		offsets[i] = off
		placed[i] = true
		total = max(total, off+iv.Size)
	}
	res := &Allocation{Total: total, Placements: make([]Placement, len(order))}
	for i, iv := range order {
		res.Placements[i] = Placement{Interval: iv, Offset: offsets[i]}
	}
	return res
}
