package lifetime

import (
	"math/rand"
	"testing"
)

// randomPeriods appends up to levels nested periods above span (the span of
// the occurrences they repeat) and returns the new span.
func randomPeriods(rng *rand.Rand, ps []Period, span int64, levels int) ([]Period, int64) {
	for lev := 0; lev < levels; lev++ {
		a := span + rng.Int63n(4)
		c := 2 + rng.Int63n(3)
		ps = append(ps, Period{A: a, Count: c})
		span = a * c
	}
	return ps, span
}

// randomNestedPair draws two valid intervals shaped like the lifetimes of
// one schedule tree: private inner periods, then (often) outer periods with
// a shared shift A but independently drawn counts, then (sometimes) extra
// outer periods on one side only.
func randomNestedPair(rng *rand.Rand) (a, b *Interval) {
	a = &Interval{Name: "a", Size: 1, Dur: 1 + rng.Int63n(4)}
	b = &Interval{Name: "b", Size: 1, Dur: 1 + rng.Int63n(4)}
	var sa, sb int64
	a.Periods, sa = randomPeriods(rng, nil, a.Dur, rng.Intn(3))
	b.Periods, sb = randomPeriods(rng, nil, b.Dur, rng.Intn(3))
	for lev := rng.Intn(3); lev > 0; lev-- {
		A := max(sa, sb) + rng.Int63n(4)
		ca, cb := 2+rng.Int63n(3), 2+rng.Int63n(3)
		if rng.Intn(2) == 0 {
			cb = ca
		}
		a.Periods = append(a.Periods, Period{A: A, Count: ca})
		b.Periods = append(b.Periods, Period{A: A, Count: cb})
		sa, sb = A*ca, A*cb
	}
	switch rng.Intn(3) {
	case 0:
		a.Periods, sa = randomPeriods(rng, a.Periods, sa, 1+rng.Intn(2))
	case 1:
		b.Periods, sb = randomPeriods(rng, b.Periods, sb, 1+rng.Intn(2))
	}
	a.Start = rng.Int63n(max(sa, sb) + 1)
	b.Start = rng.Int63n(max(sa, sb) + 1)
	return a, b
}

// TestIntersectsDifferential compares the structural test with the
// enumeration oracle on random nested pairs, in both argument orders.
func TestIntersectsDifferential(t *testing.T) {
	pairs := 1_000_000
	if testing.Short() {
		pairs = 50_000
	}
	rng := rand.New(rand.NewSource(24))
	var hits int
	for k := 0; k < pairs; k++ {
		a, b := randomNestedPair(rng)
		if err := a.Validate(); err != nil {
			t.Fatalf("bad generator: %v", err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("bad generator: %v", err)
		}
		want, ok := enumIntersects(a, b)
		if !ok {
			continue
		}
		if got := Intersects(a, b); got != want {
			t.Fatalf("pair %d: Intersects = %v, oracle %v\na=%v\nb=%v", k, got, want, a, b)
		}
		if got := Intersects(b, a); got != want {
			t.Fatalf("pair %d: Intersects(b, a) = %v, oracle %v\na=%v\nb=%v", k, got, want, a, b)
		}
		if want {
			hits++
		}
	}
	// Both answers must be well represented, or the generator is degenerate.
	if hits < pairs/10 || hits > pairs*9/10 {
		t.Errorf("%d of %d pairs intersect: generator is lopsided", hits, pairs)
	}
}

// TestIntersectsTable pins hand-picked shapes: equal outer shifts with
// unequal counts, shifts that interleave, and one-sided nesting.
func TestIntersectsTable(t *testing.T) {
	iv := func(start, dur int64, ps ...Period) *Interval {
		return &Interval{Name: "t", Size: 1, Start: start, Dur: dur, Periods: ps}
	}
	cases := []struct {
		name string
		a, b *Interval
		want bool
	}{
		{"interleaved equal shifts", iv(0, 2, Period{4, 3}), iv(2, 2, Period{4, 3}), false},
		{"equal shifts, unequal counts, late hit", iv(0, 1, Period{10, 5}), iv(41, 1, Period{10, 2}), false},
		{"equal shifts, unequal counts, overlap", iv(0, 2, Period{10, 5}), iv(41, 1, Period{10, 2}), true},
		{"fig17 pair", iv(0, 2, Period{4, 2}, Period{9, 2}), iv(2, 2, Period{4, 2}, Period{9, 2}), false},
		{"solid inside a gap", iv(0, 2, Period{10, 3}), iv(12, 8), false},
		{"solid spanning a gap", iv(0, 2, Period{10, 3}), iv(12, 9), true},
		{"different shifts meet", iv(0, 1, Period{3, 5}), iv(1, 1, Period{4, 3}), true},
		{"different shifts miss", iv(0, 1, Period{2, 5}), iv(1, 1, Period{4, 3}), false},
		{"nested one side", iv(0, 1, Period{2, 2}, Period{8, 3}), iv(4, 4), false},
		{"touching envelopes", iv(0, 5), iv(5, 5), false},
	}
	for _, tc := range cases {
		for _, p := range []*Interval{tc.a, tc.b} {
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if want, _ := enumIntersects(tc.a, tc.b); want != tc.want {
			t.Fatalf("%s: oracle says %v, table says %v", tc.name, want, tc.want)
		}
		if got := Intersects(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: Intersects = %v, want %v", tc.name, got, tc.want)
		}
		if got := Intersects(tc.b, tc.a); got != tc.want {
			t.Errorf("%s: Intersects(b, a) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestIntersectsAllocatesNothing: the structural test runs on the periods in
// place.
func TestIntersectsAllocatesNothing(t *testing.T) {
	a := &Interval{Size: 1, Start: 0, Dur: 1, Periods: []Period{{2, 3}, {7, 4}, {30, 5}}}
	b := &Interval{Size: 1, Start: 1, Dur: 1, Periods: []Period{{3, 2}, {7, 4}, {30, 3}}}
	if n := testing.AllocsPerRun(100, func() { Intersects(a, b) }); n != 0 {
		t.Errorf("Intersects allocates %v times per call", n)
	}
}
