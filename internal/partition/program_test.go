package partition_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/systems"
)

// TestProgramForms: the sequential program is one phase whose one worker
// runs the schedule body, laid out where the best allocation placed each
// interval; the phased program has one leaf term per firing block, laid out
// by the segmented allocation; and a buffer moved past the image end is
// rejected.
func TestProgramForms(t *testing.T) {
	res, err := core.Compile(systems.SatelliteReceiver(), core.Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := partition.Sequential(res.Schedule, res.Intervals, res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if seq.P != 1 || len(seq.Phases) != 1 || len(seq.Phases[0]) != 1 || len(seq.Phases[0][0]) != len(res.Schedule.Body) ||
		seq.Phases[0][0][0] != res.Schedule.Body[0] || seq.Total != res.Best.Total {
		t.Fatalf("sequential program is not the P=1 form of the schedule")
	}
	for e, iv := range res.Intervals {
		if off, _ := res.Best.OffsetOf(iv); seq.Offsets[e] != off || seq.Sizes[e] != iv.Size {
			t.Errorf("edge %d laid out at %d+%d, allocation says %d+%d", e, seq.Offsets[e], seq.Sizes[e], off, iv.Size)
		}
	}

	part, seg := res.Partition, res.Segmented
	par, err := partition.Phased(res.Graph, part, seg)
	if err != nil {
		t.Fatal(err)
	}
	if par.P != part.P || len(par.Phases) != part.NumPhases || par.Total != seg.Total {
		t.Fatalf("phased program has P=%d, %d phases, %d cells", par.P, len(par.Phases), par.Total)
	}
	for ph, phase := range part.Phases {
		for w, blocks := range phase.Workers {
			terms := par.Phases[ph][w]
			if len(terms) != len(blocks) {
				t.Fatalf("phase %d worker %d: %d terms for %d blocks", ph, w, len(terms), len(blocks))
			}
			for i, blk := range blocks {
				if n := terms[i]; !n.IsLeaf() || n.Actor != blk.Actor || n.Count != blk.Count {
					t.Errorf("phase %d worker %d term %d does not fire block %+v", ph, w, i, blk)
				}
			}
		}
	}

	seg.Offsets[0] = seg.Total - seg.Sizes[0] + 1
	if _, err := partition.Phased(res.Graph, part, seg); err == nil || !strings.Contains(err.Error(), "outside image") {
		t.Errorf("buffer past the image end: got %v", err)
	}
}
