package load

import (
	"fmt"
	"time"

	"repro/internal/hdr"
)

// ReportVersion identifies the LOAD_*.json schema; SelfCheck and sdfbench
// -compare refuse a report that carries another. Bump it on incompatible
// schema changes so old baselines fail loudly instead of comparing garbage.
const ReportVersion = "load/v1"

// Report is the versioned result of one staged ramp: the LOAD_<label>.json
// schema (documented in EXPERIMENTS.md).
type Report struct {
	Version string `json:"version"`
	Label   string `json:"label"`
	// Date is stamped by the caller (cmd/sdfload) — the engine itself only
	// sees the injected clock and leaves provenance to the binary.
	Date    string       `json:"date,omitempty"`
	Seed    int64        `json:"seed"`
	Workers int          `json:"workers"`
	Mix     Mix          `json:"mix"`
	SLO     SLO          `json:"slo"`
	Steps   []StepResult `json:"steps"`
	Knee    Knee         `json:"knee"`
	// Targets carries per-peer tallies when the run was spread over a cluster
	// (sdfload -addrs); empty for single-target runs. The caller stamps it
	// from MultiHTTPSender.Targets after the ramp.
	Targets []TargetReport `json:"targets,omitempty"`
}

// StepResult is one held RPS step of the ramp.
type StepResult struct {
	TargetRPS float64 `json:"target_rps"`
	HoldNS    int64   `json:"hold_ns"`
	// ElapsedNS is the measured wall time of the step; AchievedRPS is
	// completed requests over it.
	ElapsedNS   int64   `json:"elapsed_ns"`
	Sent        int64   `json:"sent"`
	OK          int64   `json:"ok"`
	Shed        int64   `json:"shed"`
	Errors      int64   `json:"errors"`
	AchievedRPS float64 `json:"achieved_rps"`
	// Latency holds open-loop latency percentiles in nanoseconds, measured
	// from each request's *scheduled* send time so queueing delay under
	// saturation is charged to the server, not silently absorbed
	// (coordinated-omission safe).
	Latency hdr.Snapshot     `json:"latency_ns"`
	ByKind  map[string]int64 `json:"requests_by_kind"`
	// Metrics carries /metrics counter deltas across the step (nil when the
	// scrape failed).
	Metrics *MetricsDelta `json:"metrics,omitempty"`
	// Violations lists the SLOs this step broke; the ramp stops after the
	// first violating step.
	Violations []string `json:"violations,omitempty"`
}

// Knee is the saturation verdict: the highest target RPS the server
// sustained within SLOs.
type Knee struct {
	RPS       float64 `json:"rps"`
	Saturated bool    `json:"saturated"`
	Reason    string  `json:"reason"`
}

// SLO configures the saturation criteria evaluated after every step.
type SLO struct {
	// MaxP99 fails a step whose open-loop p99 exceeds it (0 disables).
	MaxP99 time.Duration `json:"max_p99_ns"`
	// MinAchievedFrac fails a step whose achieved RPS falls below this
	// fraction of the offered (target) RPS. Default 0.9.
	MinAchievedFrac float64 `json:"min_achieved_frac"`
	// MaxErrorFrac bounds the tolerated fraction of unclassified errors
	// per step. Default 0: any error below the knee is a finding.
	MaxErrorFrac float64 `json:"max_error_frac"`
}

func (s SLO) withDefaults() SLO {
	if s.MinAchievedFrac <= 0 {
		s.MinAchievedFrac = 0.9
	}
	return s
}

// evaluateSLO returns the violations of one completed step. Pure: the ramp
// controller's saturation decision is a function of the step result alone.
func evaluateSLO(slo SLO, res StepResult) []string {
	var v []string
	if res.Sent > 0 && float64(res.Errors)/float64(res.Sent) > slo.MaxErrorFrac {
		v = append(v, fmt.Sprintf("%d of %d requests failed outside the shed/ok classes", res.Errors, res.Sent))
	}
	if slo.MaxP99 > 0 && res.Latency.P99 > int64(slo.MaxP99) {
		v = append(v, fmt.Sprintf("p99 %v exceeds the %v SLO",
			time.Duration(res.Latency.P99), slo.MaxP99))
	}
	if min := slo.MinAchievedFrac * res.TargetRPS; res.AchievedRPS < min {
		v = append(v, fmt.Sprintf("achieved %.1f rps below %.1f (%.0f%% of offered %.1f)",
			res.AchievedRPS, min, slo.MinAchievedFrac*100, res.TargetRPS))
	}
	return v
}

// SelfCheck verifies the harness's own invariants over a finished report —
// properties that hold for ANY correct open-loop run, regardless of server
// speed. make load-short gates CI on them:
//
//   - percentiles within each step are monotone non-decreasing
//     (p50 <= p90 <= p99 <= p999 <= max),
//   - every sent request is accounted for exactly once
//     (sent == ok + shed + errors == histogram count == per-kind sum),
//   - below the knee (no violations) there are zero unclassified errors
//     and achieved RPS tracks offered RPS within the SLO fraction,
//   - only the final step may carry violations (the ramp stops at the knee),
//   - when per-target tallies are present, each target's classes sum to its
//     sent count and the targets together account for every sent request.
func (r *Report) SelfCheck() []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if r.Version != ReportVersion {
		fail("report version %q, want %q", r.Version, ReportVersion)
	}
	slo := r.SLO.withDefaults()
	for i, st := range r.Steps {
		label := fmt.Sprintf("step %d (%.4g rps)", i, st.TargetRPS)
		l := st.Latency
		if l.Count > 0 && !(l.P50 <= l.P90 && l.P90 <= l.P99 && l.P99 <= l.P999 && l.P999 <= l.Max) {
			fail("%s: percentiles not monotone: p50=%d p90=%d p99=%d p999=%d max=%d",
				label, l.P50, l.P90, l.P99, l.P999, l.Max)
		}
		if st.Sent != st.OK+st.Shed+st.Errors {
			fail("%s: sent %d != ok %d + shed %d + errors %d", label, st.Sent, st.OK, st.Shed, st.Errors)
		}
		if l.Count != st.Sent {
			fail("%s: histogram count %d != sent %d", label, l.Count, st.Sent)
		}
		var byKind int64
		for _, n := range st.ByKind {
			byKind += n
		}
		if byKind != st.Sent {
			fail("%s: per-kind counts sum to %d, sent %d", label, byKind, st.Sent)
		}
		if len(st.Violations) == 0 {
			if st.Errors > 0 {
				fail("%s: %d unclassified errors below the knee", label, st.Errors)
			}
			if min := slo.MinAchievedFrac * st.TargetRPS; st.AchievedRPS < min {
				fail("%s: achieved %.1f rps below %.1f with no recorded violation",
					label, st.AchievedRPS, min)
			}
		} else if i != len(r.Steps)-1 {
			fail("%s: violations recorded on a non-final step (the ramp must stop at the knee)", label)
		}
	}
	if len(r.Targets) > 0 {
		var totalSent, byTarget int64
		for _, st := range r.Steps {
			totalSent += st.Sent
		}
		for _, t := range r.Targets {
			if t.Sent != t.OK+t.Shed+t.Errors {
				fail("target %s: sent %d != ok %d + shed %d + errors %d",
					t.Target, t.Sent, t.OK, t.Shed, t.Errors)
			}
			byTarget += t.Sent
		}
		if byTarget != totalSent {
			fail("per-target counts sum to %d, steps sent %d", byTarget, totalSent)
		}
	}
	return errs
}
