package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sdf"
)

// ParallelPoint is one (system, worker count) cell of the parallel study: the
// phased schedule's shape and the memory price of segmenting the shared
// buffer image so P workers can fire concurrently.
type ParallelPoint struct {
	Workers int `json:"workers"`
	Phases  int `json:"phases"`
	// SegmentedTotal is the partitioned image extent; MemoryRatio divides it
	// by the sequential shared total (1.0 = parallelism for free, larger =
	// cells paid for concurrency).
	SegmentedTotal int64   `json:"segmented_total"`
	MemoryRatio    float64 `json:"memory_ratio"`
	// Imbalance is the heaviest worker's cost load over the mean load
	// (1.0 = perfectly balanced).
	Imbalance float64 `json:"imbalance"`
}

// ParallelRow is the memory-vs-P study for one system.
type ParallelRow struct {
	System      string          `json:"system"`
	SharedTotal int64           `json:"shared_total"`
	Points      []ParallelPoint `json:"points"`
}

// ParallelMemory compiles every system sequentially and at each worker count
// and reports how the segmented parallel image grows with P. Worker counts
// below 2 are skipped (they are the sequential baseline by definition).
func ParallelMemory(graphs []*sdf.Graph, workers []int) ([]ParallelRow, error) {
	var rows []ParallelRow
	for _, g := range graphs {
		seq, err := core.Compile(g, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("experiments: parallel %s: %w", g.Name, err)
		}
		row := ParallelRow{System: g.Name, SharedTotal: seq.Metrics.SharedTotal}
		for _, p := range workers {
			if p < 2 {
				continue
			}
			res, err := core.Compile(g, core.Options{Partitions: p})
			if err != nil {
				return nil, fmt.Errorf("experiments: parallel %s/p%d: %w", g.Name, p, err)
			}
			if res.Partition == nil || res.Segmented == nil {
				continue // cyclic graphs compile with partitioning disabled
			}
			pt := ParallelPoint{
				Workers:        res.Partition.P,
				Phases:         res.Partition.NumPhases,
				SegmentedTotal: res.Segmented.Total,
			}
			if row.SharedTotal > 0 {
				pt.MemoryRatio = float64(pt.SegmentedTotal) / float64(row.SharedTotal)
			}
			var sum, max int64
			for _, l := range res.Partition.Load {
				sum += l
				if l > max {
					max = l
				}
			}
			if sum > 0 {
				pt.Imbalance = float64(max) * float64(res.Partition.P) / float64(sum)
			}
			row.Points = append(row.Points, pt)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatParallel renders the memory-vs-P table.
func FormatParallel(rows []ParallelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s | %8s |", "system", "shared")
	if len(rows) > 0 {
		for _, pt := range rows[0].Points {
			fmt.Fprintf(&b, " %8s %6s %6s |", fmt.Sprintf("p%d.cells", pt.Workers), "ratio", "imbal")
		}
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s | %8d |", r.System, r.SharedTotal)
		for _, pt := range r.Points {
			fmt.Fprintf(&b, " %8d %6.2f %6.2f |", pt.SegmentedTotal, pt.MemoryRatio, pt.Imbalance)
		}
		b.WriteString("\n")
	}
	return b.String()
}
