package experiments

import "testing"

func TestParallelMemoryShape(t *testing.T) {
	rows, err := ParallelMemory(smallSet(), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(smallSet()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(smallSet()))
	}
	for _, r := range rows {
		if r.SharedTotal <= 0 {
			t.Errorf("%s: sequential shared total %d", r.System, r.SharedTotal)
		}
		if len(r.Points) != 2 {
			t.Fatalf("%s: got %d points, want 2 (P=1 is the baseline, not a point)", r.System, len(r.Points))
		}
		for i, want := range []int{2, 4} {
			pt := r.Points[i]
			if pt.Workers != want {
				t.Errorf("%s: point %d has %d workers, want %d", r.System, i, pt.Workers, want)
			}
			if pt.SegmentedTotal < r.SharedTotal {
				t.Errorf("%s p%d: segmented total %d below sequential %d — segments cannot pack tighter than the unconstrained allocator",
					r.System, pt.Workers, pt.SegmentedTotal, r.SharedTotal)
			}
			if pt.MemoryRatio < 1 {
				t.Errorf("%s p%d: memory ratio %.3f < 1", r.System, pt.Workers, pt.MemoryRatio)
			}
			if pt.Imbalance < 1 {
				t.Errorf("%s p%d: imbalance %.3f < 1 (max load cannot be below mean)", r.System, pt.Workers, pt.Imbalance)
			}
			if pt.Phases <= 0 {
				t.Errorf("%s p%d: %d phases", r.System, pt.Workers, pt.Phases)
			}
		}
	}
}
