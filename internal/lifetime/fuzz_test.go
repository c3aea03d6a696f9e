package lifetime

import "testing"

// byteReader hands out the fuzz input one byte at a time, then zeros.
type byteReader []byte

func (r *byteReader) next() int64 {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int64(b)
}

// decodePair turns fuzz bytes into two intervals that pass Validate by
// construction: a start and duration each, up to three private inner
// periods each, and up to two outer periods sharing one shift A with
// independently chosen counts.
func decodePair(data []byte) (a, b *Interval) {
	r := byteReader(data)
	one := func() (*Interval, int64) {
		iv := &Interval{Name: "f", Size: 1, Start: r.next(), Dur: 1 + r.next()%8}
		span := iv.Dur
		for lev := r.next() % 4; lev > 0; lev-- {
			p := Period{A: span + r.next()%8, Count: 2 + r.next()%4}
			iv.Periods = append(iv.Periods, p)
			span = p.A * p.Count
		}
		return iv, span
	}
	a, sa := one()
	b, sb := one()
	for lev := r.next() % 3; lev > 0; lev-- {
		A := max(sa, sb) + r.next()%8
		pa, pb := Period{A: A, Count: 2 + r.next()%4}, Period{A: A, Count: 2 + r.next()%4}
		a.Periods, b.Periods = append(a.Periods, pa), append(b.Periods, pb)
		sa, sb = A*pa.Count, A*pb.Count
	}
	return a, b
}

// FuzzIntersects compares the structural intersection test with the
// enumeration oracle (under its cap) and with exhaustive LiveAt sampling of
// the envelopes' overlap.
func FuzzIntersects(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0, 0})
	f.Add([]byte{0, 1, 1, 3, 0, 2, 1, 1, 3, 0, 1, 2, 1, 3})
	f.Add([]byte{5, 2, 2, 1, 1, 4, 2, 9, 0, 1, 0, 0, 2, 3, 1, 2, 0, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := decodePair(data)
		if err := a.Validate(); err != nil {
			t.Fatalf("decoder built an invalid interval: %v", err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("decoder built an invalid interval: %v", err)
		}
		got := Intersects(a, b)
		if got != Intersects(b, a) {
			t.Fatalf("Intersects is not symmetric\na=%v\nb=%v", a, b)
		}
		if want, ok := enumIntersects(a, b); ok && got != want {
			t.Fatalf("Intersects = %v, oracle %v\na=%v\nb=%v", got, want, a, b)
		}
		lo, hi := max(a.Start, b.Start), min(a.End(), b.End())
		if hi-lo > 1<<16 {
			return
		}
		sampled := false
		for T := lo; T < hi && !sampled; T++ {
			sampled = a.LiveAt(T) && b.LiveAt(T)
		}
		if got != sampled {
			t.Fatalf("Intersects = %v, LiveAt sampling %v\na=%v\nb=%v", got, sampled, a, b)
		}
	})
}
