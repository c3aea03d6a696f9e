// Package partition turns a compiled uniprocessor schedule into a
// deterministic P-way phased schedule: actors are leveled over the
// precedence graph (longest path), each level becomes one phase, and a list
// heuristic with a load-balance cost model assigns actors to workers.
// Within one phase a worker fires each of its actors for its full
// repetitions count, so a cross-worker edge is always written in one phase
// and read in a strictly later one, the order the per-segment allocation
// (segment.go) relies on. Program (program.go) is the one executable form
// all executors run, the sequential schedule being its P=1 case. At P>=2 it
// carries the cross-worker links and shared-segment drains by which the
// self-timed executors (internal/runtime, internal/sim) keep that order
// with no barrier; only the threaded C of internal/codegen still passes a
// barrier after every phase.
//
// Two structural invariants hold by construction and are re-checked by
// internal/check:
//
//   - Every precedence edge strictly crosses phases (level(dst) > level(src)),
//     so a consumer's phase follows all of its producers' phases.
//   - Actors joined by a same-level edge are clustered onto one worker
//     (union-find), so every same-phase edge is intra-worker and its FIFO
//     bookkeeping is touched by one worker only.
//
// Delay-broken edges (delay >= total consumed per period) never impose
// precedence: their consumer can fire a whole period on initial tokens, so
// they may stay inside a level or even point "backward" across levels; either
// way their endpoint firings are ordered by a link or by one worker's
// program order.
package partition

import (
	"fmt"
	"sort"

	"repro/internal/num"
	"repro/internal/sdf"
)

// Block is one contiguous run of firings inside a phase: Count consecutive
// firings of Actor. The phased schedule fires each actor's entire period
// (Count = q(Actor)) inside its single phase.
type Block struct {
	Actor sdf.ActorID
	Count int64
}

// Phase is one step of the phased schedule: Workers[w] holds worker w's
// firing blocks, executed in order. Workers past the last one that holds an
// actor fire nothing and have no list.
type Phase struct {
	Workers [][]Block
}

// Partitioned is the P-way phased schedule. Assign and PhaseOf are the
// canonical encoding (Phases and Load are derived deterministically from
// them plus the graph, see Rebuild).
type Partitioned struct {
	// P is the worker count (>= 1).
	P int
	// NumPhases is the number of phases.
	NumPhases int
	// Assign maps each actor to its worker in [0, P).
	Assign []int
	// PhaseOf maps each actor to its phase (its precedence level).
	PhaseOf []int
	// Phases holds the per-phase, per-worker firing blocks.
	Phases []Phase
	// Load is the summed firing cost per worker (the list heuristic's
	// balance objective), up to the last worker that holds an actor.
	Load []int64
}

// String summarizes the partitioning for diagnostics: worker count, phase
// count, and the load spread.
func (p *Partitioned) String() string {
	var lo, hi int64
	for i, l := range p.Load {
		if i == 0 || l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if len(p.Load) < p.P {
		lo = 0 // the workers past Load are idle
	}
	return fmt.Sprintf("P=%d phases=%d load=[%d..%d]", p.P, p.NumPhases, lo, hi)
}

// Run partitions a compiled schedule across p workers. order must be a
// topological order of the precedence graph (the Order pass artifact); q the
// repetitions vector. p >= 1; p = 1 yields a single worker that fires the
// whole period phase by phase.
//
// The heuristic: longest-path levels over precedence edges give the phases;
// same-level actors connected by an edge are merged into clusters
// (union-find); clusters are assigned in (level asc, cost desc, min-actor-ID
// asc) order to the currently least-loaded worker, cost(a) = q(a) * (1 +
// sum of input consume rates + sum of output produce rates). All arithmetic
// is overflow-checked (errors wrap num.ErrOverflow).
func Run(g *sdf.Graph, q sdf.Repetitions, order []sdf.ActorID, p int) (*Partitioned, error) {
	if p < 1 {
		return nil, fmt.Errorf("partition: worker count must be >= 1, got %d", p)
	}
	n := g.NumActors()
	if len(order) != n || len(q) != n {
		return nil, fmt.Errorf("partition: order/repetitions length mismatch (%d actors, %d order, %d q)",
			n, len(order), len(q))
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, a := range order {
		if a < 0 || int(a) >= n || pos[a] != -1 {
			return nil, fmt.Errorf("partition: order is not a permutation of the actors")
		}
		pos[a] = i
	}

	// Longest-path levels over precedence edges. order topologically sorts
	// the precedence graph, so one pass in order sequence sees every
	// precedence predecessor before its successor.
	level := make([]int, n)
	for _, a := range order {
		lv := 0
		for _, eid := range g.In(a) {
			if !sdf.PrecedenceEdge(g, q, eid) {
				continue
			}
			src := g.Edge(eid).Src
			if pos[src] >= pos[a] {
				return nil, fmt.Errorf("partition: order violates precedence edge %d (%d before %d)",
					eid, a, src)
			}
			if l := level[src] + 1; l > lv {
				lv = l
			}
		}
		level[a] = lv
	}

	// Cluster same-level neighbours so every same-phase edge stays on one
	// worker. Precedence edges always cross levels, so only delay-broken
	// edges ever union; a cluster lies entirely within one level.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range g.Edges() {
		if level[e.Src] == level[e.Dst] {
			ra, rb := find(int(e.Src)), find(int(e.Dst))
			if ra != rb {
				if ra > rb { // deterministic: smaller actor ID becomes the root
					ra, rb = rb, ra
				}
				parent[rb] = ra
			}
		}
	}

	cost, err := actorCosts(g, q)
	if err != nil {
		return nil, err
	}

	byRoot := make(map[int]*cluster)
	var clusters []*cluster
	for _, a := range g.Actors() {
		r := find(int(a.ID))
		cl := byRoot[r]
		if cl == nil {
			cl = &cluster{level: level[a.ID], minID: int(a.ID)}
			byRoot[r] = cl
			clusters = append(clusters, cl)
		}
		if int(a.ID) < cl.minID {
			cl.minID = int(a.ID)
		}
		if cl.cost, err = num.CheckedAdd(cl.cost, cost[a.ID]); err != nil {
			return nil, fmt.Errorf("partition: cluster cost: %w", err)
		}
	}
	// Deterministic list order: level ascending, cost descending, min actor
	// ID ascending. clusters was built by iterating actors in ID order, so
	// the pre-sort order is already deterministic.
	sortClusters(clusters)

	// Greedy list assignment to the least-loaded worker (ties: lowest
	// worker index); every actor then takes its cluster's worker.
	load := make([]int64, p)
	for _, cl := range clusters {
		w := 0
		for i := 1; i < p; i++ {
			if load[i] < load[w] {
				w = i
			}
		}
		if load[w], err = num.CheckedAdd(load[w], cl.cost); err != nil {
			return nil, fmt.Errorf("partition: worker load: %w", err)
		}
		cl.worker = w
	}
	assign := make([]int, n)
	for a := range assign {
		assign[a] = byRoot[find(a)].worker
	}

	return build(g, q, order, p, assign, level, cost)
}

// Rebuild reconstructs a Partitioned from its canonical encoding (the
// store codec's decode path). It validates the structural invariants —
// assignment bounds, precedence edges crossing phases forward, same-phase
// edges intra-worker — and derives Phases and Load exactly as Run does.
func Rebuild(g *sdf.Graph, q sdf.Repetitions, order []sdf.ActorID, p int, assign, phaseOf []int) (*Partitioned, error) {
	n := g.NumActors()
	if p < 1 {
		return nil, fmt.Errorf("partition: worker count must be >= 1, got %d", p)
	}
	if len(assign) != n || len(phaseOf) != n || len(order) != n || len(q) != n {
		return nil, fmt.Errorf("partition: rebuild length mismatch (%d actors)", n)
	}
	for a := 0; a < n; a++ {
		if assign[a] < 0 || assign[a] >= p {
			return nil, fmt.Errorf("partition: actor %d assigned to worker %d of %d", a, assign[a], p)
		}
		// Phases are longest-path levels, so below n; build allocates one
		// phase of p worker lists per level, so a corrupt phase must not
		// reach it.
		if phaseOf[a] < 0 || phaseOf[a] >= n {
			return nil, fmt.Errorf("partition: actor %d has phase %d outside [0,%d)", a, phaseOf[a], n)
		}
	}
	for _, e := range g.Edges() {
		if sdf.PrecedenceEdge(g, q, e.ID) && phaseOf[e.Dst] <= phaseOf[e.Src] {
			return nil, fmt.Errorf("partition: precedence edge %d does not cross phases (%d -> %d)",
				e.ID, phaseOf[e.Src], phaseOf[e.Dst])
		}
		if phaseOf[e.Src] == phaseOf[e.Dst] && assign[e.Src] != assign[e.Dst] {
			return nil, fmt.Errorf("partition: same-phase edge %d spans workers %d and %d",
				e.ID, assign[e.Src], assign[e.Dst])
		}
	}
	cost, err := actorCosts(g, q)
	if err != nil {
		return nil, err
	}
	return build(g, q, order, p, assign, phaseOf, cost)
}

// build derives the executable phase lists and worker loads from the
// canonical (assign, phaseOf) encoding. Actors appear in their `order`
// position sequence inside each worker's per-phase list, which fixes the
// firing order completely.
func build(g *sdf.Graph, q sdf.Repetitions, order []sdf.ActorID, p int, assign, phaseOf []int, cost []int64) (*Partitioned, error) {
	numPhases, busy := 0, 0
	for a, ph := range phaseOf {
		numPhases, busy = max(numPhases, ph+1), max(busy, assign[a]+1)
	}
	// Only the workers up to the last busy one get phase lists and loads,
	// so the graph, not the worker count, bounds what a decode allocates.
	phases := make([]Phase, numPhases)
	for i := range phases {
		phases[i].Workers = make([][]Block, busy)
	}
	load := make([]int64, busy)
	var err error
	for _, a := range order {
		ph, w := phaseOf[a], assign[a]
		phases[ph].Workers[w] = append(phases[ph].Workers[w], Block{Actor: a, Count: q.Q(a)})
		if load[w], err = num.CheckedAdd(load[w], cost[a]); err != nil {
			return nil, fmt.Errorf("partition: worker load: %w", err)
		}
	}
	return &Partitioned{
		P:         p,
		NumPhases: numPhases,
		Assign:    assign,
		PhaseOf:   phaseOf,
		Phases:    phases,
		Load:      load,
	}, nil
}

// actorCosts computes the load model: cost(a) = q(a) * (1 + sum of input
// consume rates + sum of output produce rates) — a proxy for tokens moved
// per period plus a constant per firing.
func actorCosts(g *sdf.Graph, q sdf.Repetitions) ([]int64, error) {
	cost := make([]int64, g.NumActors())
	for _, a := range g.Actors() {
		c := int64(1)
		var err error
		for _, eid := range g.In(a.ID) {
			if c, err = num.CheckedAdd(c, g.Edge(eid).Cons); err != nil {
				return nil, fmt.Errorf("partition: actor %s cost: %w", a.Name, err)
			}
		}
		for _, eid := range g.Out(a.ID) {
			if c, err = num.CheckedAdd(c, g.Edge(eid).Prod); err != nil {
				return nil, fmt.Errorf("partition: actor %s cost: %w", a.Name, err)
			}
		}
		if cost[a.ID], err = num.CheckedMul(q.Q(a.ID), c); err != nil {
			return nil, fmt.Errorf("partition: actor %s cost: %w", a.Name, err)
		}
	}
	return cost, nil
}

// cluster is a union-find component of same-level actors, the unit of the
// greedy list assignment.
type cluster struct {
	level  int
	cost   int64
	minID  int
	worker int // set by the greedy assignment
}

// sortClusters orders the greedy list: level ascending, cost descending,
// min actor ID ascending. The input order is deterministic (built in actor
// ID order) and the key is a total order, so the result is too.
func sortClusters(cs []*cluster) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if a.level != b.level {
			return a.level < b.level
		}
		if a.cost != b.cost {
			return a.cost > b.cost
		}
		return a.minID < b.minID
	})
}
