package lifetime

// Reference implementations the tests compare the production code against.
//
// enumIntersects is the occurrence-enumeration intersection test: it steps
// through every occurrence of the interval with fewer occurrences and
// window-tests each against the other, so it is obviously correct but costs
// time linear in the occurrence count; past maxEnumeration occurrences it
// answers only a conservative "intersects". The differential tests and
// FuzzIntersects compare Intersects against it wherever it is under its cap.

// maxEnumeration caps how many occurrences enumIntersects will enumerate.
const maxEnumeration = 1 << 16

// enumIntersects reports whether a and b are ever live at the same instant by
// occurrence enumeration; ok is false when both operands exceed the cap and
// the answer is only the conservative envelope test.
func enumIntersects(a, b *Interval) (hit, ok bool) {
	if a.Start >= b.End() || b.Start >= a.End() {
		return false, true
	}
	if len(a.Periods) == 0 && len(b.Periods) == 0 {
		return true, true
	}
	if a.Occurrences() > b.Occurrences() {
		a, b = b, a
	}
	if a.Occurrences() > maxEnumeration {
		return true, false
	}
	a.forEachOccurrence(func(s int64) bool {
		if b.overlapsWindow(s, a.Dur) {
			hit = true
			return false
		}
		return true
	})
	return hit, true
}

// forEachOccurrence calls fn with each occurrence start in increasing order;
// fn returning false stops the walk.
func (iv *Interval) forEachOccurrence(fn func(start int64) bool) {
	n := len(iv.Periods)
	k := make([]int64, n)
	for {
		s := iv.Start
		for i, p := range iv.Periods {
			s += k[i] * p.A
		}
		if !fn(s) {
			return
		}
		i := 0
		for ; i < n; i++ {
			k[i]++
			if k[i] < iv.Periods[i].Count {
				break
			}
			k[i] = 0
		}
		if i == n {
			return
		}
	}
}

// prevStart returns the start time of the occurrence with the largest start
// <= T, and false if T precedes the first occurrence.
func (iv *Interval) prevStart(T int64) (int64, bool) {
	t := T - iv.Start
	if t < 0 {
		return 0, false
	}
	s := iv.Start
	for i := len(iv.Periods) - 1; i >= 0; i-- {
		p := iv.Periods[i]
		k := t / p.A
		if k > p.Count-1 {
			k = p.Count - 1
		}
		t -= k * p.A
		s += k * p.A
	}
	return s, true
}

// NextStart returns the start time of the first occurrence with start > T,
// and false if none exists. It implements the mixed-radix increment of
// Sec. 8.4.
func (iv *Interval) NextStart(T int64) (int64, bool) {
	if T < iv.Start {
		return iv.Start, true
	}
	// Decompose to digits k_i (outermost last), then increment.
	t := T - iv.Start
	n := len(iv.Periods)
	k := make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		p := iv.Periods[i]
		k[i] = t / p.A
		if k[i] > p.Count-1 {
			k[i] = p.Count - 1
		}
		t -= k[i] * p.A
	}
	// Increment the mixed-radix number (index 0 is least significant).
	for i := 0; i < n; i++ {
		if k[i] < iv.Periods[i].Count-1 {
			k[i]++
			for j := 0; j < i; j++ {
				k[j] = 0
			}
			s := iv.Start
			for x, p := range iv.Periods {
				s += k[x] * p.A
			}
			if s > T {
				return s, true
			}
			// s <= T can happen when the decomposition clamped digits; retry
			// from the incremented position.
			return iv.NextStart(s)
		}
	}
	return 0, false
}

// overlapsWindow reports whether any occurrence of iv intersects the
// half-open window [s, s+d).
func (iv *Interval) overlapsWindow(s, d int64) bool {
	if s+d <= iv.Start || s >= iv.End() {
		return false
	}
	if prev, ok := iv.prevStart(s); ok && prev+iv.Dur > s {
		return true
	}
	next, ok := iv.NextStart(s)
	return ok && next < s+d
}

// mcwOptimisticScan is the O(n^2) optimistic clique weight (mco): every
// interval's liveness at every interval's start.
func mcwOptimisticScan(intervals []*Interval) int64 {
	var best int64
	for _, iv := range intervals {
		t := iv.Start
		var w int64
		for _, other := range intervals {
			if other.LiveAt(t) {
				w += other.Size
			}
		}
		if w > best {
			best = w
		}
	}
	return best
}

// mcwPessimisticScan is the O(n^2) pessimistic clique weight (mcp): every
// envelope at every interval's start.
func mcwPessimisticScan(intervals []*Interval) int64 {
	var best int64
	for _, iv := range intervals {
		t := iv.Start
		var w int64
		for _, other := range intervals {
			if other.Start <= t && t < other.End() {
				w += other.Size
			}
		}
		if w > best {
			best = w
		}
	}
	return best
}

// buildWIGScan is the all-pairs adjacency: every pair of intervals decided
// by enumIntersects, lists appended in ascending order. ok is false
// when some envelope-overlapping pair was beyond the oracle's cap.
func buildWIGScan(intervals []*Interval) (adj [][]int32, ok bool) {
	adj = make([][]int32, len(intervals))
	ok = true
	for i := range intervals {
		for j := i + 1; j < len(intervals); j++ {
			hit, exact := enumIntersects(intervals[i], intervals[j])
			ok = ok && exact
			if hit {
				adj[i] = append(adj[i], int32(j))
				adj[j] = append(adj[j], int32(i))
			}
		}
	}
	return adj, ok
}
