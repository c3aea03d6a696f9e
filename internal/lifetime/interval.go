// Package lifetime implements periodic buffer-lifetime intervals and the
// analyses the paper builds on them: the mixed-radix liveness test (Fig. 18),
// exact structural intersection of periodic intervals, the weighted
// intersection graph (Fig. 19), and the optimistic and pessimistic
// maximum-clique-weight estimates of Sec. 9.1.
package lifetime

import (
	"cmp"
	"fmt"
	"slices"
)

// Period is one periodicity component of a buffer lifetime: the enclosing
// loop repeats Count times with a shift of A schedule steps per iteration
// (A = dur(left(v)) + dur(right(v)) for tree node v, Count = loop(v)).
type Period struct {
	A     int64
	Count int64
}

// Interval is the lifetime of one buffer. The buffer of Size memory cells is
// live during the occurrences
//
//	[Start + sum_i p_i*A_i , Start + sum_i p_i*A_i + Dur)
//
// for every combination p_i in {0, ..., Count_i-1}. Periods must satisfy the
// nesting property A_i*(Count_i-1) < A_{i+1} when sorted ascending, which
// holds by construction for schedule trees and makes the greedy liveness
// test exact.
type Interval struct {
	Name  string // diagnostic label, usually "src->dst"
	Size  int64  // memory cells occupied while live
	Start int64  // earliest start time (schedule steps)
	Dur   int64  // length of each occurrence; > 0
	// Periods sorted by ascending A. Empty for a non-periodic interval.
	Periods []Period
}

// Validate checks structural invariants; analyses assume they hold.
func (iv *Interval) Validate() error {
	if iv.Size <= 0 {
		return fmt.Errorf("lifetime: interval %s has size %d", iv.Name, iv.Size)
	}
	if iv.Dur <= 0 {
		return fmt.Errorf("lifetime: interval %s has duration %d", iv.Name, iv.Dur)
	}
	if iv.Start < 0 {
		return fmt.Errorf("lifetime: interval %s starts at %d", iv.Name, iv.Start)
	}
	prevSpan := iv.Dur
	for i, p := range iv.Periods {
		if p.A <= 0 || p.Count < 2 {
			return fmt.Errorf("lifetime: interval %s period %d invalid (A=%d Count=%d)",
				iv.Name, i, p.A, p.Count)
		}
		if p.A < prevSpan {
			return fmt.Errorf("lifetime: interval %s period %d overlaps inner span (A=%d span=%d)",
				iv.Name, i, p.A, prevSpan)
		}
		// A block of Count occurrences at this level spans at most A*Count
		// steps, which must nest inside one shift of the next level.
		prevSpan = p.A * p.Count
	}
	return nil
}

// Occurrences returns the number of live occurrences (product of counts).
func (iv *Interval) Occurrences() int64 {
	n := int64(1)
	for _, p := range iv.Periods {
		n *= p.Count
	}
	return n
}

// LastStart returns the start of the final occurrence.
func (iv *Interval) LastStart() int64 {
	s := iv.Start
	for _, p := range iv.Periods {
		s += p.A * (p.Count - 1)
	}
	return s
}

// End returns the exclusive end of the final occurrence; the envelope of the
// interval is [Start, End).
func (iv *Interval) End() int64 { return iv.LastStart() + iv.Dur }

// LiveAt reports whether the buffer is live at time T (Fig. 18): it greedily
// decomposes T-Start in the mixed radix defined by the periods, largest
// first, and checks the remainder against Dur.
func (iv *Interval) LiveAt(T int64) bool {
	t := T - iv.Start
	if t < 0 {
		return false
	}
	for i := len(iv.Periods) - 1; i >= 0; i-- {
		p := iv.Periods[i]
		k := t / p.A
		if k > p.Count-1 {
			k = p.Count - 1
		}
		t -= k * p.A
	}
	return t < iv.Dur
}

// Intersects reports whether two periodic intervals are ever live at the
// same instant. It decides the question on the periodicity triples, without
// enumerating occurrences; see intersects.
func Intersects(a, b *Interval) bool {
	return intersects(a.Start, a.End()-a.Start, a.Periods, b.Start, b.End()-b.Start, b.Periods)
}

// intersects is the structural test behind Intersects. Each operand is an
// occurrence set given by its first start s, its envelope length e (first
// start to end of the last occurrence) and its periods, outermost last. The
// recursion strips outermost periods:
//
//   - disjoint envelopes never intersect, and two solid intervals (no
//     periods left) with overlapping envelopes always do;
//   - when both outermost periods shift by the same A, iteration i of a
//     meets iteration j of b exactly when the inner pair meets under the
//     relative shift (i-j)*A, so only the shifts d in [-(Cb-1), Ca-1] whose
//     envelopes overlap are visited — by the nesting property an inner
//     envelope is at most A long, so that is at most two;
//   - otherwise the operand with the larger outermost A (a solid operand
//     has none) is split into its iterations that overlap the other's
//     envelope, and each is tested against the whole other operand.
//
// Every step partitions the occurrence sets, so the answer is exact for any
// valid pair; the nesting property only bounds the work. The recursion
// allocates nothing and its depth is at most the total number of periods.
func intersects(sa, ea int64, pa []Period, sb, eb int64, pb []Period) bool {
	if sa >= sb+eb || sb >= sa+ea {
		return false
	}
	if len(pa) == 0 && len(pb) == 0 {
		return true
	}
	var oa, ob Period
	if len(pa) > 0 {
		oa = pa[len(pa)-1]
	}
	if len(pb) > 0 {
		ob = pb[len(pb)-1]
	}
	if oa.A == ob.A {
		// Both periodic with one shift: relative shifts d = i-j.
		A := oa.A
		ia, ib := ea-A*(oa.Count-1), eb-A*(ob.Count-1)
		lo := max(-(ob.Count - 1), floorDiv(sb-sa-ia, A)+1)
		hi := min(oa.Count-1, ceilDiv(sb-sa+ib, A)-1)
		for d := lo; d <= hi; d++ {
			if intersects(sa+d*A, ia, pa[:len(pa)-1], sb, ib, pb[:len(pb)-1]) {
				return true
			}
		}
		return false
	}
	if oa.A < ob.A {
		sa, ea, pa, oa, sb, eb, pb = sb, eb, pb, ob, sa, ea, pa
	}
	// Split a into the iterations whose envelopes overlap b's envelope.
	A := oa.A
	ia := ea - A*(oa.Count-1)
	lo := max(0, floorDiv(sb-sa-ia, A)+1)
	hi := min(oa.Count-1, ceilDiv(sb+eb-sa, A)-1)
	for i := lo; i <= hi; i++ {
		if intersects(sa+i*A, ia, pa[:len(pa)-1], sb, eb, pb) {
			return true
		}
	}
	return false
}

// floorDiv returns floor(x/y) for y > 0.
func floorDiv(x, y int64) int64 {
	q := x / y
	if x%y != 0 && x < 0 {
		q--
	}
	return q
}

// ceilDiv returns ceil(x/y) for y > 0.
func ceilDiv(x, y int64) int64 {
	q := x / y
	if x%y != 0 && x > 0 {
		q++
	}
	return q
}

// String renders the interval compactly for diagnostics.
func (iv *Interval) String() string {
	return fmt.Sprintf("%s[size=%d start=%d dur=%d periods=%v]",
		iv.Name, iv.Size, iv.Start, iv.Dur, iv.Periods)
}

// ByStart returns the indices of ivs ordered by ascending start time,
// longer duration first on ties: the "ffstart" enumeration. Remaining ties
// keep index order. Every caller passes intervals in edge-ID order, which
// makes the result deterministic without consulting interval names. Keeping
// names out of the comparison is deliberate: it makes allocation invariant
// under actor renames, which the persistent pass-node store relies on
// (renaming an actor must not invalidate stored allocations).
func ByStart(ivs []*Interval) []int32 {
	return orderBy(ivs, func(iv *Interval) (int64, int64) { return iv.Start, -iv.Dur })
}

// ByDuration returns the indices of ivs ordered by descending total live
// span (envelope length), then by ascending start, then by index: the
// "ffdur" enumeration (see ByStart on why names are excluded).
func ByDuration(ivs []*Interval) []int32 {
	return orderBy(ivs, func(iv *Interval) (int64, int64) { return iv.Start - iv.End(), iv.Start })
}

// orderBy returns the indices of ivs sorted by ascending key, then index.
// Keys are computed once per interval rather than once per comparison.
func orderBy(ivs []*Interval, key func(*Interval) (int64, int64)) []int32 {
	type sortKey struct {
		major, minor int64
		id           int32
	}
	keys := make([]sortKey, len(ivs))
	for i, iv := range ivs {
		a, b := key(iv)
		keys[i] = sortKey{a, b, int32(i)}
	}
	slices.SortFunc(keys, func(x, y sortKey) int {
		if c := cmp.Compare(x.major, y.major); c != 0 {
			return c
		}
		if c := cmp.Compare(x.minor, y.minor); c != 0 {
			return c
		}
		return cmp.Compare(x.id, y.id)
	})
	ids := make([]int32, len(ivs))
	for i, k := range keys {
		ids[i] = k.id
	}
	return ids
}
