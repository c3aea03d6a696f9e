package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/systems"
)

// TestRunAllocsIndependentOfPeriods pins that verifying a token costs no
// allocation: sim.Run on satrec at P=1 allocates the same for 1 period as
// for 4, so its setup is the only allocation it makes.
func TestRunAllocsIndependentOfPeriods(t *testing.T) {
	res, err := core.Compile(systems.SatelliteReceiver(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(periods int) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := sim.Run(res.Schedule, res.Repetitions, res.Intervals, res.Best, periods); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, four := allocs(1), allocs(4); four > one {
		t.Errorf("sim.Run allocates %v for 4 periods, %v for 1: allocations grow with the period count", four, one)
	}
}
