package lifetime

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// paperInterval is the Fig. 17 buffer AB: start 0, dur 2, shifts (4, 9),
// counts (2, 2); live over [0,2], [4,6], [9,11], [13,15].
func paperInterval() *Interval {
	return &Interval{
		Name: "AB", Size: 1, Start: 0, Dur: 2,
		Periods: []Period{{A: 4, Count: 2}, {A: 9, Count: 2}},
	}
}

func TestLiveAtPaperExample(t *testing.T) {
	iv := paperInterval()
	if err := iv.Validate(); err != nil {
		t.Fatal(err)
	}
	want := map[int64]bool{0: true, 1: true, 4: true, 5: true, 9: true, 10: true, 13: true, 14: true}
	for tm := int64(-2); tm < 20; tm++ {
		if got := iv.LiveAt(tm); got != want[tm] {
			t.Errorf("LiveAt(%d) = %v, want %v", tm, got, want[tm])
		}
	}
}

func TestOccurrenceEnumeration(t *testing.T) {
	iv := paperInterval()
	var starts []int64
	iv.forEachOccurrence(func(s int64) bool { starts = append(starts, s); return true })
	want := []int64{0, 4, 9, 13}
	if len(starts) != len(want) {
		t.Fatalf("starts = %v, want %v", starts, want)
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Errorf("starts[%d] = %d, want %d", i, starts[i], want[i])
		}
	}
	if iv.Occurrences() != 4 {
		t.Errorf("Occurrences = %d", iv.Occurrences())
	}
	if iv.LastStart() != 13 || iv.End() != 15 {
		t.Errorf("LastStart/End = %d/%d, want 13/15", iv.LastStart(), iv.End())
	}
}

func TestNextStartPaperIncrement(t *testing.T) {
	// Sec. 8.4 example: loops (2,2,2), a = (28,13,4) listed outermost first;
	// ascending order (4,13,28). With digits (0,1,1) -> 17, the next start
	// is 28 (digits (1,0,0) in the outer-first notation).
	iv := &Interval{
		Name: "x", Size: 1, Start: 0, Dur: 2,
		Periods: []Period{{A: 4, Count: 2}, {A: 13, Count: 2}, {A: 28, Count: 2}},
	}
	if err := iv.Validate(); err != nil {
		t.Fatal(err)
	}
	next, ok := iv.NextStart(17)
	if !ok || next != 28 {
		t.Errorf("NextStart(17) = %d,%v, want 28,true", next, ok)
	}
	next, ok = iv.NextStart(-5)
	if !ok || next != 0 {
		t.Errorf("NextStart(-5) = %d,%v, want 0,true", next, ok)
	}
	if _, ok := iv.NextStart(45); ok {
		t.Error("NextStart past last occurrence should report none")
	}
}

func TestNextStartAgainstEnumeration(t *testing.T) {
	iv := paperInterval()
	starts := []int64{0, 4, 9, 13}
	for T := int64(-1); T < 16; T++ {
		var want int64 = -1
		for _, s := range starts {
			if s > T {
				want = s
				break
			}
		}
		got, ok := iv.NextStart(T)
		if want == -1 {
			if ok {
				t.Errorf("NextStart(%d) = %d, want none", T, got)
			}
			continue
		}
		if !ok || got != want {
			t.Errorf("NextStart(%d) = %d,%v, want %d", T, got, ok, want)
		}
	}
}

func TestIntersectsDisjointPeriodic(t *testing.T) {
	// Fig. 17: buffers (A,B) and (C,D) interleave without overlapping.
	ab := paperInterval()
	cd := &Interval{
		Name: "CD", Size: 1, Start: 2, Dur: 2,
		Periods: []Period{{A: 4, Count: 2}, {A: 9, Count: 2}},
	}
	if err := cd.Validate(); err != nil {
		t.Fatal(err)
	}
	if Intersects(ab, cd) {
		t.Error("AB and CD should be disjoint (interleaved periodic lifetimes)")
	}
	// Shifting CD by one step makes them overlap at times 1, 5, 10, 14.
	cd.Start = 1
	if !Intersects(ab, cd) {
		t.Error("shifted CD should intersect AB")
	}
}

func TestIntersectsSolid(t *testing.T) {
	a := &Interval{Name: "a", Size: 1, Start: 0, Dur: 5}
	b := &Interval{Name: "b", Size: 1, Start: 5, Dur: 3}
	c := &Interval{Name: "c", Size: 1, Start: 4, Dur: 1}
	if Intersects(a, b) {
		t.Error("[0,5) and [5,8) must not intersect (half-open)")
	}
	if !Intersects(a, c) {
		t.Error("[0,5) and [4,5) must intersect")
	}
}

// TestIntersectsMatchesBruteForce cross-checks Intersects against direct
// enumeration of live time steps for random small periodic intervals.
func TestIntersectsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randomInterval := func() *Interval {
		iv := &Interval{Name: "r", Size: 1, Start: int64(rng.Intn(6)), Dur: 1 + int64(rng.Intn(4))}
		span := iv.Dur
		for lev := 0; lev < rng.Intn(3); lev++ {
			a := span + int64(rng.Intn(5))
			count := int64(2 + rng.Intn(3))
			iv.Periods = append(iv.Periods, Period{A: a, Count: count})
			span = a * count
		}
		return iv
	}
	liveSet := func(iv *Interval) map[int64]bool {
		m := map[int64]bool{}
		iv.forEachOccurrence(func(s int64) bool {
			for d := int64(0); d < iv.Dur; d++ {
				m[s+d] = true
			}
			return true
		})
		return m
	}
	for trial := 0; trial < 500; trial++ {
		a, b := randomInterval(), randomInterval()
		if err := a.Validate(); err != nil {
			t.Fatalf("bad generator: %v", err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("bad generator: %v", err)
		}
		la, lb := liveSet(a), liveSet(b)
		brute := false
		for k := range la {
			if lb[k] {
				brute = true
				break
			}
		}
		if got := Intersects(a, b); got != brute {
			t.Fatalf("trial %d: Intersects = %v, brute force = %v\na=%v\nb=%v",
				trial, got, brute, a, b)
		}
	}
}

// TestLiveAtMatchesEnumerationQuick is a property-based check that LiveAt
// agrees with occurrence enumeration on arbitrary (valid) intervals.
func TestLiveAtMatchesEnumerationQuick(t *testing.T) {
	f := func(start uint8, dur uint8, gaps [2]uint8, counts [2]uint8, probe int16) bool {
		iv := &Interval{Name: "q", Size: 1, Start: int64(start % 16), Dur: 1 + int64(dur%5)}
		span := iv.Dur
		for i := 0; i < 2; i++ {
			if counts[i]%3 == 0 {
				continue
			}
			a := span + int64(gaps[i]%6)
			c := int64(2 + counts[i]%3)
			iv.Periods = append(iv.Periods, Period{A: a, Count: c})
			span = a * c
		}
		if iv.Validate() != nil {
			return true // generator produced an invalid config; skip
		}
		T := int64(probe % 200)
		want := false
		iv.forEachOccurrence(func(s int64) bool {
			if s <= T && T < s+iv.Dur {
				want = true
				return false
			}
			return true
		})
		return iv.LiveAt(T) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadIntervals(t *testing.T) {
	cases := []*Interval{
		{Name: "zero-size", Size: 0, Start: 0, Dur: 1},
		{Name: "zero-dur", Size: 1, Start: 0, Dur: 0},
		{Name: "neg-start", Size: 1, Start: -1, Dur: 1},
		{Name: "bad-count", Size: 1, Start: 0, Dur: 1, Periods: []Period{{A: 2, Count: 1}}},
		{Name: "overlap", Size: 1, Start: 0, Dur: 5, Periods: []Period{{A: 2, Count: 2}}},
	}
	for _, iv := range cases {
		if err := iv.Validate(); err == nil {
			t.Errorf("Validate(%s) accepted invalid interval", iv.Name)
		}
	}
}

func TestSortOrders(t *testing.T) {
	a := &Interval{Name: "a", Size: 1, Start: 5, Dur: 2}
	b := &Interval{Name: "b", Size: 1, Start: 0, Dur: 10}
	c := &Interval{Name: "c", Size: 1, Start: 0, Dur: 3}
	if got := ByStart([]*Interval{a, b, c}); !slices.Equal(got, []int32{1, 2, 0}) {
		t.Errorf("ByStart order = %v, want [1 2 0] (b c a)", got)
	}
	if got := ByDuration([]*Interval{a, c, b}); !slices.Equal(got, []int32{2, 1, 0}) {
		t.Errorf("ByDuration order = %v, want [2 1 0] (b c a)", got)
	}
	// Full ties keep index order.
	d := &Interval{Name: "d", Size: 9, Start: 0, Dur: 3}
	if got := ByStart([]*Interval{d, c, d}); !slices.Equal(got, []int32{0, 1, 2}) {
		t.Errorf("ByStart ties = %v, want [0 1 2]", got)
	}
	if got := ByDuration([]*Interval{d, c, d}); !slices.Equal(got, []int32{0, 1, 2}) {
		t.Errorf("ByDuration ties = %v, want [0 1 2]", got)
	}
}

func TestMCWEstimates(t *testing.T) {
	// Two solid intervals overlapping at [2,4): weights 3+5 = 8.
	a := &Interval{Name: "a", Size: 3, Start: 0, Dur: 4}
	b := &Interval{Name: "b", Size: 5, Start: 2, Dur: 4}
	ivs := []*Interval{a, b}
	if got, _ := CliqueWeights(ivs); got != 8 {
		t.Errorf("mco = %d, want 8", got)
	}
	if _, got := CliqueWeights(ivs); got != 8 {
		t.Errorf("mcp = %d, want 8", got)
	}
	// A periodic interval that interleaves with a solid one: optimistic sees
	// no overlap at the starts, pessimistic sees full envelope overlap.
	p := &Interval{Name: "p", Size: 2, Start: 0, Dur: 1, Periods: []Period{{A: 4, Count: 3}}}
	s := &Interval{Name: "s", Size: 7, Start: 2, Dur: 1}
	ivs = []*Interval{p, s}
	if got, _ := CliqueWeights(ivs); got != 7 {
		t.Errorf("mco = %d, want 7 (no simultaneous liveness at starts)", got)
	}
	if _, got := CliqueWeights(ivs); got != 9 {
		t.Errorf("mcp = %d, want 9 (envelopes overlap)", got)
	}
}

func TestBuildWIG(t *testing.T) {
	a := &Interval{Name: "a", Size: 1, Start: 0, Dur: 4}
	b := &Interval{Name: "b", Size: 1, Start: 2, Dur: 4}
	c := &Interval{Name: "c", Size: 1, Start: 10, Dur: 1}
	w := BuildWIG([]*Interval{a, b, c})
	if nb := w.Neighbors(0); len(nb) != 1 || nb[0] != 1 {
		t.Errorf("Neighbors(a) = %v, want [1]", nb)
	}
	if nb := w.Neighbors(1); len(nb) != 1 || nb[0] != 0 {
		t.Errorf("Neighbors(b) = %v, want [0]", nb)
	}
	if nb := w.Neighbors(2); len(nb) != 0 {
		t.Errorf("Neighbors(c) = %v, want empty", nb)
	}
}

func TestMCWExampleFromFig20(t *testing.T) {
	// Fig. 20's point: the MCW can occur at a periodic occurrence that is
	// not the earliest start of any interval. Construct: solid interval s
	// over [3,6), periodic p live at [0,1) and [4,5). At time 4 both are
	// live (weight 2) but at earliest starts 0 and 3 the weight is 1 and 1+1.
	p := &Interval{Name: "p", Size: 1, Start: 0, Dur: 1, Periods: []Period{{A: 4, Count: 2}}}
	s := &Interval{Name: "s", Size: 1, Start: 3, Dur: 3}
	// Optimistic: at p.Start=0 weight 1; at s.Start=3 weight 1 (p dead). The
	// true MCW is 2 at t=4; optimistic underestimates as the paper warns.
	if got, _ := CliqueWeights([]*Interval{p, s}); got != 1 {
		t.Errorf("mco = %d, want 1 (documented underestimate)", got)
	}
	if _, got := CliqueWeights([]*Interval{p, s}); got != 2 {
		t.Errorf("mcp = %d, want 2", got)
	}
}
