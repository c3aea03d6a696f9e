package lifetime

import "testing"

// TestIntersectsBeyondCap: intervals with more occurrences than the
// enumeration oracle's cap (2^17 each) are decided exactly. The giants at
// starts 0 and 1 live on even and odd steps respectively, so they never
// meet although their envelopes overlap almost entirely.
func TestIntersectsBeyondCap(t *testing.T) {
	big := func(start, dur int64) *Interval {
		iv := &Interval{Name: "big", Size: 1, Start: start, Dur: dur}
		// 2^17 occurrences via 17 binary period levels.
		a := int64(1)
		for i := 0; i < 17; i++ {
			a *= 2
			iv.Periods = append(iv.Periods, Period{A: a, Count: 2})
		}
		if err := iv.Validate(); err != nil {
			t.Fatal(err)
		}
		return iv
	}
	even, odd := big(0, 1), big(1, 1)
	if even.Occurrences() <= maxEnumeration {
		t.Fatalf("test interval too small: %d occurrences", even.Occurrences())
	}
	if _, ok := enumIntersects(even, odd); ok {
		t.Fatal("oracle decided a pair beyond its cap")
	}
	if Intersects(even, odd) || Intersects(odd, even) {
		t.Error("even- and odd-step giants reported intersecting")
	}
	// Two steps long, the odd giant covers the next even step: they meet at
	// time 2 (and every even step after it).
	wide := big(1, 2)
	if !even.LiveAt(2) || !wide.LiveAt(2) {
		t.Fatal("witness step 2 not live in both")
	}
	if !Intersects(even, wide) || !Intersects(wide, even) {
		t.Error("overlapping giants reported disjoint")
	}
	// Disjoint envelopes stay disjoint.
	far := big(10_000_000, 1)
	if Intersects(even, far) {
		t.Error("envelope-disjoint giants reported intersecting")
	}
}

// TestNextStartClampedDigits exercises the recursive retry in NextStart when
// the greedy decomposition clamps a digit.
func TestNextStartClampedDigits(t *testing.T) {
	iv := &Interval{Name: "c", Size: 1, Start: 0, Dur: 1,
		Periods: []Period{{A: 3, Count: 2}, {A: 10, Count: 3}}}
	if err := iv.Validate(); err != nil {
		t.Fatal(err)
	}
	// Occurrences: 0,3,10,13,20,23. Query times between blocks (e.g. 7)
	// clamp the inner digit.
	starts := []int64{0, 3, 10, 13, 20, 23}
	for T := int64(-1); T < 26; T++ {
		want := int64(-1)
		for _, s := range starts {
			if s > T {
				want = s
				break
			}
		}
		got, ok := iv.NextStart(T)
		if want < 0 {
			if ok {
				t.Errorf("NextStart(%d) = %d, want none", T, got)
			}
			continue
		}
		if !ok || got != want {
			t.Errorf("NextStart(%d) = %d/%v, want %d", T, got, ok, want)
		}
	}
}

// TestOverlapsWindowBoundaries pins the half-open interval convention.
func TestOverlapsWindowBoundaries(t *testing.T) {
	iv := &Interval{Name: "w", Size: 1, Start: 10, Dur: 5} // [10,15)
	cases := []struct {
		s, d int64
		want bool
	}{
		{0, 10, false},  // [0,10) touches at 10: disjoint
		{15, 3, false},  // [15,18): disjoint
		{14, 1, true},   // [14,15): overlaps
		{9, 2, true},    // [9,11): overlaps
		{10, 5, true},   // exact
		{12, 100, true}, // spans
	}
	for _, tc := range cases {
		if got := iv.overlapsWindow(tc.s, tc.d); got != tc.want {
			t.Errorf("overlapsWindow(%d,%d) = %v, want %v", tc.s, tc.d, got, tc.want)
		}
	}
}

// TestMCWSingleInterval trivial bounds.
func TestMCWSingleInterval(t *testing.T) {
	iv := &Interval{Name: "s", Size: 7, Start: 3, Dur: 4}
	if o, p := CliqueWeights([]*Interval{iv}); o != 7 || p != 7 {
		t.Error("single-interval clique weight should be its size")
	}
	if o, p := CliqueWeights(nil); o != 0 || p != 0 {
		t.Error("empty instance should have zero clique weight")
	}
}

// TestChartEmpty renders an empty instance without panicking.
func TestChartEmpty(t *testing.T) {
	if out := Chart(nil, 10, 20); out == "" {
		t.Error("empty chart should still have a header")
	}
}
