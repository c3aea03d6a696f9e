package lifetime

import (
	"cmp"
	"math/bits"
	"slices"
)

// WIG is the weighted intersection graph of a set of buffer lifetimes
// (Sec. 9.1): node i is Intervals[i], weighted by its size, with an edge
// between two nodes iff their lifetimes overlap in time. The graph does not
// depend on any enumeration order, so one WIG over the intervals in edge-ID
// order serves every allocator.
type WIG struct {
	Intervals []*Interval
	// The neighbours of node i are adj[off[i]:off[i+1]], in ascending
	// order; all lists share one backing array.
	off []int32
	adj []int32
}

// Neighbors returns the nodes whose lifetimes intersect node i's, in
// ascending order. The slice aliases the graph and must not be modified.
func (w *WIG) Neighbors(i int) []int32 { return w.adj[w.off[i]:w.off[i+1]] }

// BuildWIG constructs the weighted intersection graph over intervals (node
// i is intervals[i]). Pairs are pruned by envelope disjointness before the
// exact structural test.
func BuildWIG(intervals []*Interval) *WIG {
	n := len(intervals)
	end := make([]int64, n)
	for i, iv := range intervals {
		end[i] = iv.End()
	}
	// Row i of the symmetric bit matrix marks i's neighbours; off first
	// counts each node's degree.
	words := (n + 63) / 64
	rows := make([]uint64, n*words)
	off := make([]int32, n+1)
	for i, a := range intervals {
		for j := i + 1; j < n; j++ {
			b := intervals[j]
			if a.Start >= end[j] || b.Start >= end[i] {
				continue
			}
			if intersects(a.Start, end[i]-a.Start, a.Periods, b.Start, end[j]-b.Start, b.Periods) {
				rows[i*words+j/64] |= 1 << (j % 64)
				rows[j*words+i/64] |= 1 << (i % 64)
				off[i+1]++
				off[j+1]++
			}
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adj := make([]int32, 0, off[n])
	for k, word := range rows {
		for ; word != 0; word &= word - 1 {
			adj = append(adj, int32(k%words*64+bits.TrailingZeros64(word)))
		}
	}
	return &WIG{Intervals: intervals, off: off, adj: adj}
}

// CliqueWeights returns both maximum-clique-weight estimates of Sec. 9.1,
// evaluated at every interval's earliest start time t:
//
//   - optimistic (mco) weighs the intervals live at t by the exact periodic
//     liveness test. The true MCW may occur at a later periodic occurrence,
//     so this can under-estimate.
//   - pessimistic (mcp) ignores periodicity and weighs every interval whose
//     envelope [Start, End) contains t. The maximum overlap of solid
//     intervals occurs at some interval's start time, so this is exact for
//     the relaxed instance.
//
// Only intervals whose envelope contains t can be live at t, so one sweep
// over the start-sorted intervals with an active set of open envelopes
// computes both.
func CliqueWeights(intervals []*Interval) (optimistic, pessimistic int64) {
	order := slices.Clone(intervals)
	slices.SortFunc(order, func(a, b *Interval) int { return cmp.Compare(a.Start, b.Start) })
	active := make([]*Interval, 0, len(order))
	for k := 0; k < len(order); {
		t := order[k].Start
		for ; k < len(order) && order[k].Start == t; k++ {
			active = append(active, order[k])
		}
		var opt, pes int64
		open := active[:0]
		for _, iv := range active {
			if iv.End() <= t {
				continue
			}
			open = append(open, iv)
			pes += iv.Size
			if iv.LiveAt(t) {
				opt += iv.Size
			}
		}
		active = open
		optimistic, pessimistic = max(optimistic, opt), max(pessimistic, pes)
	}
	return optimistic, pessimistic
}
