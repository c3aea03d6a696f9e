package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the call. Spans of one op share Op; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: plan levels and server handlers record from several
// goroutines.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu; spans[i].ID == i+1
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(op int64, parent int, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	n    int
	dur  time.Duration // sum of span durations
	self time.Duration // sum of the wall time each span owns, children excluded
}

// traceSummary is the per-name aggregation of every recorded span.
type traceSummary struct {
	byName map[string]*layerStat
	// childSelf sums the self time of every non-root span.
	childSelf time.Duration
}

func (s traceSummary) get(name string) layerStat {
	if st := s.byName[name]; st != nil {
		return *st
	}
	return layerStat{}
}

// coverage is the share of the "op" roots' wall time that layer spans own:
// below 1 by whatever the benchmark spends between its calls into layers.
func (s traceSummary) coverage() float64 {
	return ratio(float64(s.childSelf), float64(s.get("op").dur))
}

// summary attributes the roots' wall time to spans and aggregates it per
// name. A root owns its whole duration. Each stretch of a span that its
// children cover passes to them, split evenly among the children open
// during it — plan levels and server handlers run children in parallel — and
// scaled by the share of the span's own duration it owns. A span's self time
// is what it owns minus what it passes on, so the self times of one root's
// tree add up to the root's duration.
func (t *tracer) summary() traceSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	owned := make([]float64, len(spans))
	out := traceSummary{byName: map[string]*layerStat{}}
	// IDs are issued when spans begin, so a parent precedes its children.
	for i, s := range spans {
		dur := float64(s.End - s.Start)
		if s.Parent == 0 {
			owned[i] = dur
		}
		self := owned[i]
		if dur > 0 {
			kids := children[s.ID]
			for k, c := range splitCovered(s, spans, kids) {
				c *= owned[i] / dur
				owned[kids[k]] = c
				self -= c
			}
		}
		st := out.byName[s.Name]
		if st == nil {
			st = &layerStat{}
			out.byName[s.Name] = st
		}
		st.n++
		st.dur += time.Duration(dur)
		st.self += time.Duration(self)
		if s.Parent != 0 {
			out.childSelf += time.Duration(self)
		}
	}
	return out
}

// splitCovered returns, for each of parent's children (indices into spans),
// its even share of the parent's interval: every stretch the children cover
// is divided among the children open during it.
func splitCovered(parent span, spans []span, kids []int) []float64 {
	type edge struct {
		t    int64
		k    int
		open bool
	}
	var edges []edge
	for k, i := range kids {
		s, e := max(spans[i].Start, parent.Start), min(spans[i].End, parent.End)
		if e > s {
			edges = append(edges, edge{s, k, true}, edge{e, k, false})
		}
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].t < edges[b].t })
	out := make([]float64, len(kids))
	var open []int
	var prev int64
	for _, e := range edges {
		if len(open) > 0 {
			share := float64(e.t-prev) / float64(len(open))
			for _, k := range open {
				out[k] += share
			}
		}
		prev = e.t
		if e.open {
			open = append(open, e.k)
			continue
		}
		for j, k := range open {
			if k == e.k {
				open = append(open[:j], open[j+1:]...)
				break
			}
		}
	}
	return out
}

// write stores the spans as spans.jsonl and the per-layer metrics plus the
// per-name span totals as layers.json, both under dir/<workload>/.
func (t *tracer) write(dir, workload string, layers map[string]metric) error {
	if dir == "" {
		return nil
	}
	dir = filepath.Join(dir, workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}

	type spanTotal struct {
		Count  int     `json:"count"`
		DurUS  float64 `json:"dur_us"`
		SelfUS float64 `json:"self_us"`
	}
	sum := t.summary()
	totals := map[string]spanTotal{}
	for name, st := range sum.byName {
		totals[name] = spanTotal{st.n, us(st.dur), us(st.self)}
	}
	data, err := json.MarshalIndent(struct {
		Metrics map[string]metric    `json:"metrics"`
		Spans   map[string]spanTotal `json:"spans"`
	}{layers, totals}, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.json"), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
