package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/systems"
)

// TestRunAllocsIndependentOfPeriods pins that verifying a token costs no
// allocation: on satrec, sim.Run at P=1 and sim.RunPhased at P=2 allocate
// the same for 1 period as for 4, so their setup is the only allocation
// they make.
func TestRunAllocsIndependentOfPeriods(t *testing.T) {
	seq, err := core.Compile(systems.SatelliteReceiver(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.Compile(systems.SatelliteReceiver(), core.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func(periods int) error
	}{
		{"sim.Run", func(periods int) error {
			return sim.Run(seq.Schedule, seq.Intervals, seq.Best, periods)
		}},
		{"sim.RunPhased", func(periods int) error {
			return sim.RunPhased(par.Graph, par.Partition, par.Segmented, periods)
		}},
	} {
		allocs := func(periods int) float64 {
			return testing.AllocsPerRun(5, func() {
				if err := c.run(periods); err != nil {
					t.Fatal(err)
				}
			})
		}
		if one, four := allocs(1), allocs(4); four > one {
			t.Errorf("%s allocates %v for 4 periods, %v for 1: allocations grow with the period count", c.name, four, one)
		}
	}
}
