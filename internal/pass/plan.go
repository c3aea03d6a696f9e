package pass

import (
	"context"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/par"
	"repro/internal/sdf"
)

// PlanConfig parameterizes plan construction and observation.
type PlanConfig struct {
	// OnEvent, when non-nil, receives an Enter and a Leave event for every
	// pass node the executor actually runs. Nodes at one level run in
	// parallel, so the handler must be safe for concurrent use. Nodes whose
	// artifact is loaded from Store are not run and emit no events; Stats
	// reports them as Loaded.
	OnEvent func(Event)
	// OnOutcome, when non-nil, is called exactly once per grid point as that
	// point reaches its terminal state — its assembly finishes or an upstream
	// failure propagates to it — with the point's input index and the same
	// Outcome Run will return for it. Points at one level finish in parallel,
	// so the handler must be safe for concurrent use. The service's grid
	// resolver uses this to stream per-entry results while the grid is still
	// executing.
	OnOutcome func(point int, o Outcome)
	// Store, when non-nil, is the persistent pass-node store: before
	// executing a node the executor probes it under the node's projected
	// content key (store.go) and parses and binds the artifact on a hit;
	// after a successful execution it publishes the encoded artifact. When
	// the store is also a Tier, a level's nodes first recall their parses
	// from it on the caller's goroutine, and only the rest are read, parsed
	// or run on the par pool. Keys cover exactly the graph fields each pass
	// reads, chained through upstream artifact hashes, so an edit
	// invalidates only the DAG suffix that can observe it. The repetitions
	// node (NewPlan already solved for q), assemble nodes and the cyclic
	// fallback never touch the store. The store must be safe for concurrent
	// use.
	Store Store
}

// Outcome is one grid point's terminal state: exactly one of Result and Err
// is non-nil. Err for a point is the same error a direct CompileContext of
// that point would return (shared prefix nodes propagate their failure to
// every point that depends on them).
type Outcome struct {
	Result *Result
	Err    error
}

// KindCount reports the deduplication achieved for one pass kind: Nodes is
// how many nodes of that kind the plan holds, Naive is how many executions
// the point-at-a-time pipeline would have performed for the same grid.
// After Run, Executed counts the nodes whose pass actually ran and Loaded
// the nodes satisfied from the persistent store instead (nodes that only
// propagated an upstream failure count for neither).
type KindCount struct {
	Kind     Kind
	Nodes    int
	Naive    int
	Executed int
	Loaded   int
}

// Plan is a memoized pass graph over one SDF graph and a grid of option
// points. Construction dedups grid points into a prefix-sharing DAG: a node
// is identified by its parent node plus its kind's option projection
// (store.go), so the repetitions vector is computed once per graph, each
// lexical order once per strategy, each looped schedule once per (order,
// looping), lifetimes once per schedule, and each allocator leaf once per
// (lifetimes, strategy). A full strategy × looping × allocator sweep thus
// executes O(distinct nodes) passes instead of O(points × pipeline length).
// A Plan is single-use: build with NewPlan, execute with Run once.
//
// Graphs whose precedence relation is cyclic take a fallback: every point
// runs CompileGeneralContext independently (the SCC condensation path has no
// shareable prefix structure), still in parallel, with one Assemble node per
// point.
type Plan struct {
	g      *sdf.Graph
	cfg    PlanConfig
	tier   Tier // cfg.Store's tier, if it has one
	points []Options
	cyclic bool

	rep        *repNode
	orders     []*orderNode
	scheds     []*schedNode
	lifes      []*lifeNode
	allocs     []*allocNode
	parts      []*partNode
	segs       []*segNode
	assemblies []*assembleNode
}

// node is the state every pass node carries, whatever its artifact: its
// kind and index among the plan's nodes of that kind (the Event identity),
// the parent whose failure it inherits, its error, its store key, the
// payload hash that chains into its children's store keys, and how it was
// satisfied — ran is set around the actual pass execution, loaded when the
// artifact came from the persistent store or its tier. At most one of the
// two is set; neither on upstream failure.
type node struct {
	kind   Kind
	id     int
	parent *node // nil for repetitions and assemble nodes
	err    error
	key    string // store key; empty unless the node is stored
	hash   []byte
	ran    bool
	loaded bool
}

func (n *node) head() *node { return n }

func (n *node) counts() (executed, loaded int) {
	if n.ran {
		return 1, 0
	}
	if n.loaded {
		return 0, 1
	}
	return 0, 0
}

type repNode struct {
	node
	out Repetitions
}

type orderNode struct {
	node
	strategy OrderStrategy
	custom   []sdf.ActorID
	out      Order
}

type schedNode struct {
	node
	order   *orderNode
	looping LoopAlg
	out     LoopedSchedule
}

type lifeNode struct {
	node
	sched *schedNode
	out   Lifetimes
}

type allocNode struct {
	node
	life  *lifeNode
	strat alloc.Strategy
	out   Allocation
}

// partNode is the P-way phased schedule node: it depends only on the lexical
// order (and the repetitions vector), so points sharing an order and a worker
// count share the partition regardless of looping/allocator choices.
type partNode struct {
	node
	order      *orderNode
	partitions int
	out        Partition
}

// segNode packs the segmented parallel memory image; 1:1 with its partition.
type segNode struct {
	node
	part *partNode
	out  SegmentedAllocation
}

// assembleNode is one grid point's leaf: verify/merge/metrics assembly over
// the shared artifacts. Never shared — Verify, VerifyPeriods and Merging
// are per-point. Its id is the point's index.
type assembleNode struct {
	node
	opts   Options
	life   *lifeNode // nil on the cyclic fallback
	allocs []*allocNode
	part   *partNode // nil unless the point requested Partitions >= 2
	seg    *segNode  // 1:1 with part
	out    *Result
}

// passNode is any typed node, seen through its shared state.
type passNode interface{ head() *node }

// nodeID identifies a node among its kind: its parent plus the kind's
// option projection.
type nodeID struct {
	parent *node
	opts   string
}

// intern returns the node of the kind indexed by idx under (parent, opts),
// creating it with mk and appending it to list on first use.
func intern[N passNode](idx map[nodeID]N, list *[]N, kind Kind, parent *node, opts []byte, mk func() N) N {
	id := nodeID{parent, string(opts)}
	n, ok := idx[id]
	if !ok {
		n = mk()
		*n.head() = node{kind: kind, id: len(*list), parent: parent}
		idx[id] = n
		*list = append(*list, n)
	}
	return n
}

// NewPlan builds the deduplicated pass graph for compiling g at every point
// of the grid. Points may repeat (identical points share every node and
// yield independent identical outcomes).
func NewPlan(g *sdf.Graph, points []Options, cfg PlanConfig) (*Plan, error) {
	if g == nil {
		return nil, fmt.Errorf("pass: plan needs a graph")
	}
	p := &Plan{g: g, cfg: cfg, points: make([]Options, len(points))}
	copy(p.points, points)

	q, err := g.Repetitions()
	if err != nil {
		// The direct pipeline reports inconsistency identically at every
		// point; surface it once at plan time.
		return nil, err
	}
	p.cyclic = !g.IsAcyclic(q)
	if !p.cyclic {
		// The repetitions node's artifact is this q: Run hands it on rather
		// than solving the balance equations again or loading them.
		p.rep = &repNode{node: node{kind: KindRepetitions}, out: Repetitions{Q: q}}
	}
	orders := map[nodeID]*orderNode{}
	scheds := map[nodeID]*schedNode{}
	lifes := map[nodeID]*lifeNode{}
	allocs := map[nodeID]*allocNode{}
	parts := map[nodeID]*partNode{}
	segs := map[nodeID]*segNode{}
	for i, pt := range p.points {
		as := &assembleNode{node: node{kind: KindAssemble, id: i}, opts: pt}
		p.assemblies = append(p.assemblies, as)
		if p.cyclic {
			continue
		}
		on := intern(orders, &p.orders, KindOrder, &p.rep.node, orderOpts(pt.Strategy, pt.Order), func() *orderNode {
			return &orderNode{strategy: pt.Strategy, custom: pt.Order}
		})
		sn := intern(scheds, &p.scheds, KindSchedule, &on.node, schedOpts(pt.Looping), func() *schedNode {
			return &schedNode{order: on, looping: pt.Looping}
		})
		as.life = intern(lifes, &p.lifes, KindLifetimes, &sn.node, nil, func() *lifeNode {
			return &lifeNode{sched: sn}
		})
		for _, strat := range defaultAllocators(pt.Allocators) {
			as.allocs = append(as.allocs, intern(allocs, &p.allocs, KindAlloc, &as.life.node, allocOpts(strat), func() *allocNode {
				return &allocNode{life: as.life, strat: strat}
			}))
		}
		if pt.Partitions >= 2 {
			as.part = intern(parts, &p.parts, KindPartition, &on.node, partitionOpts(pt.Partitions), func() *partNode {
				return &partNode{order: on, partitions: pt.Partitions}
			})
			as.seg = intern(segs, &p.segs, KindSegalloc, &as.part.node, nil, func() *segNode {
				return &segNode{part: as.part}
			})
		}
	}
	return p, nil
}

// count reports one kind's node count against its naive execution count,
// and how its nodes were satisfied.
func count[N passNode](k Kind, naive int, nodes []N) KindCount {
	kc := KindCount{Kind: k, Nodes: len(nodes), Naive: naive}
	for _, n := range nodes {
		e, l := n.head().counts()
		kc.Executed += e
		kc.Loaded += l
	}
	return kc
}

// Stats reports, per pass kind, how many nodes the plan executes versus how
// many the naive point-at-a-time pipeline would have, plus — once Run has
// happened — how many nodes actually ran (Executed) versus were satisfied
// from the persistent store (Loaded). On the cyclic fallback there is no
// sharing: only Assemble nodes exist and Nodes == Naive.
func (p *Plan) Stats() []KindCount {
	n := len(p.points)
	if p.cyclic {
		return []KindCount{count(KindAssemble, n, p.assemblies)}
	}
	naiveAllocs, naiveParts := 0, 0
	for _, pt := range p.points {
		naiveAllocs += len(defaultAllocators(pt.Allocators))
		if pt.Partitions >= 2 {
			naiveParts++
		}
	}
	return []KindCount{
		count(KindRepetitions, n, []*repNode{p.rep}),
		count(KindOrder, n, p.orders),
		count(KindSchedule, n, p.scheds),
		count(KindLifetimes, n, p.lifes),
		count(KindAlloc, naiveAllocs, p.allocs),
		count(KindPartition, naiveParts, p.parts),
		count(KindSegalloc, naiveParts, p.segs),
		count(KindAssemble, n, p.assemblies),
	}
}

// NodeCount returns total executed nodes and the naive execution count,
// summed over kinds.
func (p *Plan) NodeCount() (nodes, naive int) {
	for _, kc := range p.Stats() {
		nodes += kc.Nodes
		naive += kc.Naive
	}
	return nodes, naive
}

func (p *Plan) emit(n *node, enter bool) {
	if p.cfg.OnEvent != nil {
		p.cfg.OnEvent(Event{Kind: n.kind, Node: n.id, Enter: enter})
	}
}

// nodeStep is one node's kind-specific half of stepLevel: where its
// artifact goes, its store key, its pass, and its artifact codec. A nil key
// marks a kind that is never stored. parse and bind split the load of a
// payload (store.go); P is the parse, which the store's tier holds.
type nodeStep[T any, P parsed] struct {
	out    *T
	key    func() string
	run    func() (T, error)
	parse  func(data []byte) (P, error)
	bind   func(P) T
	encode func(T) ([]byte, error)
}

// infallible adapts an artifact encoder that cannot fail to nodeStep.encode.
func infallible[T any](enc func(T) []byte) func(T) ([]byte, error) {
	return func(v T) ([]byte, error) { return enc(v), nil }
}

// same is the bind of the kinds whose parse is the artifact itself.
func same[T any](v T) T { return v }

// unstored is the parse type of the steps that are never stored.
type unstored struct{}

func (unstored) size() int64 { return 0 }

// kept is what the tier holds for one key: the parse of its payload and the
// payload's chaining hash.
type kept[P parsed] struct {
	hash   []byte
	parsed P
}

// recall resolves a node on the caller's goroutine when that costs no pass
// work and no I/O: it propagates the parent's error, checks the context,
// and binds the parse the store's tier recalls under the node's key. It
// reports whether the node is resolved, and leaves a stored node's key in
// n.key for load.
func recall[T any, P parsed](ctx context.Context, p *Plan, sk *storeKeys, n *node, s nodeStep[T, P]) bool {
	if n.parent != nil && n.parent.err != nil {
		n.err = n.parent.err
		return true
	}
	if n.err = checkpoint(ctx, n.kind); n.err != nil {
		return true
	}
	if sk == nil || s.key == nil {
		return false
	}
	n.key = s.key()
	if p.tier == nil {
		return false
	}
	if v, ok := p.tier.Recall(n.key); ok {
		if k, ok := v.(kept[P]); ok {
			n.loaded, n.hash = true, k.hash
			*s.out = s.bind(k.parsed)
			return true
		}
	}
	return false
}

// load resolves a node recall left open: it loads the artifact from the
// store when a parsable payload is published under the node's key, and
// otherwise runs the pass between an Enter and a Leave event and publishes
// the encoded artifact. Either way the tier keeps the payload's parse. The
// artifact is the zero value on failure.
func load[T any, P parsed](p *Plan, n *node, s nodeStep[T, P]) {
	if n.key != "" {
		if data, ok := p.cfg.Store.Get(n.key); ok {
			if v, err := s.parse(data); err == nil {
				n.loaded, n.hash = true, payloadHash(data)
				keep(p, n, v)
				*s.out = s.bind(v)
				return
			}
		}
	}
	p.emit(n, true)
	n.ran = true
	*s.out, n.err = s.run()
	p.emit(n, false)
	if n.key == "" || n.err != nil {
		return
	}
	data, err := s.encode(*s.out)
	if err != nil {
		return
	}
	n.hash = payloadHash(data)
	p.cfg.Store.Put(n.key, data)
	if p.tier != nil {
		if v, err := s.parse(data); err == nil {
			keep(p, n, v)
		}
	}
}

// keep hands the parse of a node's payload to the store's tier, if it has
// one.
func keep[P parsed](p *Plan, n *node, v P) {
	if p.tier != nil {
		p.tier.Keep(n.key, kept[P]{n.hash, v}, v.size())
	}
}

// level runs fn on every node of one DAG level in parallel on the
// deterministic par pool.
func level[N any](nodes []N, fn func(N)) {
	_ = par.ForEach(len(nodes), func(i int) error {
		fn(nodes[i])
		return nil
	})
}

// stepLevel is the one store-aware step every pass level runs; mk builds a
// node's step. recall checks every node of the level against its parent
// and the context, one checkpoint per node as in the direct pipeline, and
// resolves what the tier holds on the caller's goroutine; only the rest
// load or run, in parallel on the par pool.
func stepLevel[N passNode, T any, P parsed](ctx context.Context, p *Plan, sk *storeKeys, nodes []N, mk func(N) nodeStep[T, P]) {
	var rest []N
	for _, n := range nodes {
		if !recall(ctx, p, sk, n.head(), mk(n)) {
			rest = append(rest, n)
		}
	}
	level(rest, func(n N) { load(p, n.head(), mk(n)) })
}

// Run executes the plan: level by level down the DAG, independent nodes of a
// level in parallel on the deterministic par pool, each node exactly once.
// The returned slice has one Outcome per input point, in input order. A
// failing shared node fails every dependent point with the same error; the
// remaining branches still execute. Run never returns an overall error —
// cancellation of ctx surfaces as per-point abort errors.
func (p *Plan) Run(ctx context.Context) []Outcome {
	if p.cyclic {
		// The SCC condensation path has no shareable prefix structure, so the
		// store is not consulted: every point compiles directly.
		level(p.assemblies, func(as *assembleNode) {
			p.assemble(as, func() (*Result, error) { return CompileGeneralContext(ctx, p.g, as.opts) })
		})
		return p.outcomes()
	}

	// The store keys project exactly the graph fields each pass reads
	// (store.go); the projections are computed once per run.
	var sk *storeKeys
	if p.cfg.Store != nil {
		sk = newStoreKeys(p.g)
		p.tier, _ = p.cfg.Store.(Tier)
	}
	g, rep := p.g, p.rep
	stepLevel(ctx, p, sk, []*repNode{rep}, func(*repNode) nodeStep[Repetitions, unstored] {
		return nodeStep[Repetitions, unstored]{
			out: &rep.out,
			run: func() (Repetitions, error) { return rep.out, nil },
		}
	})
	stepLevel(ctx, p, sk, p.orders, func(n *orderNode) nodeStep[Order, Order] {
		return nodeStep[Order, Order]{
			out:    &n.out,
			key:    func() string { return sk.orderKey(n.strategy, n.custom) },
			run:    func() (Order, error) { return RunOrder(g, rep.out, n.strategy, n.custom) },
			parse:  func(data []byte) (Order, error) { return parseOrder(g, data) },
			bind:   same[Order],
			encode: infallible(encodeOrder),
		}
	})
	stepLevel(ctx, p, sk, p.scheds, func(n *schedNode) nodeStep[LoopedSchedule, parsedSched] {
		return nodeStep[LoopedSchedule, parsedSched]{
			out:    &n.out,
			key:    func() string { return sk.schedKey(n.order.hash, n.looping) },
			run:    func() (LoopedSchedule, error) { return RunSchedule(g, rep.out, n.order.out, n.looping) },
			parse:  func(data []byte) (parsedSched, error) { return parseSched(g, data) },
			bind:   func(ps parsedSched) LoopedSchedule { return ps.bind(g) },
			encode: infallible(encodeSched),
		}
	})
	stepLevel(ctx, p, sk, p.lifes, func(n *lifeNode) nodeStep[Lifetimes, parsedLife] {
		return nodeStep[Lifetimes, parsedLife]{
			out:    &n.out,
			key:    func() string { return sk.lifeKey(n.sched.hash) },
			run:    func() (Lifetimes, error) { return RunLifetimes(rep.out, n.sched.out) },
			parse:  func(data []byte) (parsedLife, error) { return parseLife(g, data) },
			bind:   func(pl parsedLife) Lifetimes { return pl.bind(g) },
			encode: infallible(encodeLife),
		}
	})
	// Many allocator leaves read one Lifetimes artifact concurrently;
	// RunAlloc never writes it.
	stepLevel(ctx, p, sk, p.allocs, func(n *allocNode) nodeStep[Allocation, parsedAlloc] {
		return nodeStep[Allocation, parsedAlloc]{
			out:    &n.out,
			key:    func() string { return allocStoreKey(n.life.hash, n.strat) },
			run:    func() (Allocation, error) { return RunAlloc(n.life.out, n.strat) },
			parse:  func(data []byte) (parsedAlloc, error) { return parseAlloc(n.life.out, data) },
			bind:   func(pa parsedAlloc) Allocation { return pa.bind(n.life.out, n.strat) },
			encode: func(a Allocation) ([]byte, error) { return encodeAlloc(n.life.out, a) },
		}
	})
	// Partitions depend only on the lexical order, like schedules; they run
	// after the allocator leaves to keep the sequential pipeline's
	// first-error order (alloc failures win).
	stepLevel(ctx, p, sk, p.parts, func(n *partNode) nodeStep[Partition, Partition] {
		return nodeStep[Partition, Partition]{
			out: &n.out,
			key: func() string { return partitionStoreKey(sk, n.order.hash, n.partitions) },
			run: func() (Partition, error) { return RunPartition(g, rep.out, n.order.out, n.partitions) },
			parse: func(data []byte) (Partition, error) {
				return parsePartition(g, rep.out, n.order.out, n.partitions, data)
			},
			bind:   same[Partition],
			encode: infallible(encodePartition),
		}
	})
	stepLevel(ctx, p, sk, p.segs, func(n *segNode) nodeStep[SegmentedAllocation, parsedSeg] {
		return nodeStep[SegmentedAllocation, parsedSeg]{
			out:    &n.out,
			key:    func() string { return segallocStoreKey(sk, n.part.hash) },
			run:    func() (SegmentedAllocation, error) { return RunSegAlloc(g, rep.out, n.part.out) },
			parse:  func(data []byte) (parsedSeg, error) { return parseSegalloc(g, rep.out, n.part.out, data) },
			bind:   func(ps parsedSeg) SegmentedAllocation { return ps.bind(g) },
			encode: infallible(encodeSegalloc),
		}
	})

	// Per-point assembly (verify, merge, metrics). Upstream errors are
	// reported in the point's allocator order, matching the first-error
	// behavior of the sequential pipeline. Assembly is never stored: its
	// inputs include per-point options (verify, merging) and its output
	// includes the graph pointer itself.
	level(p.assemblies, func(as *assembleNode) {
		allocs := make([]Allocation, 0, len(as.allocs))
		for _, an := range as.allocs {
			allocs = append(allocs, an.out)
		}
		var part Partition
		var seg SegmentedAllocation
		if as.part != nil {
			part, seg = as.part.out, as.seg.out
		}
		p.assemble(as, func() (*Result, error) {
			return finishResult(ctx, g, as.opts, rep.out, as.life.sched.order.out.Actors,
				as.life.sched.out, as.life.out, allocs, part, seg)
		})
	})
	return p.outcomes()
}

// assemble runs one point's assembly unless an upstream node failed, then
// reports the point's outcome. Every point passes through here exactly once,
// so OnOutcome fires exactly once per point.
func (p *Plan) assemble(as *assembleNode, run func() (*Result, error)) {
	if as.err = as.upstreamErr(); as.err == nil {
		p.emit(&as.node, true)
		as.ran = true
		as.out, as.err = run()
		p.emit(&as.node, false)
	}
	if p.cfg.OnOutcome != nil {
		p.cfg.OnOutcome(as.id, Outcome{Result: as.out, Err: as.err})
	}
}

// upstreamErr is the first failure among the point's inputs, in the
// sequential pipeline's order: lifetimes (which carries any order or
// schedule failure), each allocator, then the partition and its segmented
// allocation.
func (as *assembleNode) upstreamErr() error {
	if as.life == nil {
		return nil
	}
	if as.life.err != nil {
		return as.life.err
	}
	for _, an := range as.allocs {
		if an.err != nil {
			return an.err
		}
	}
	if as.part != nil {
		if as.part.err != nil {
			return as.part.err
		}
		return as.seg.err
	}
	return nil
}

func (p *Plan) outcomes() []Outcome {
	out := make([]Outcome, len(p.assemblies))
	for i, as := range p.assemblies {
		out[i] = Outcome{Result: as.out, Err: as.err}
	}
	return out
}

// RunGridOutcomes plans and executes g across the option grid, returning one
// Outcome per point in input order.
func RunGridOutcomes(ctx context.Context, g *sdf.Graph, points []Options, cfg PlanConfig) ([]Outcome, error) {
	p, err := NewPlan(g, points, cfg)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx), nil
}

// RunGrid is RunGridOutcomes with fail-fast semantics: the error of the
// lowest-indexed failing point (or the plan-time error) aborts the whole
// grid, mirroring a sequential loop of CompileContext calls.
func RunGrid(ctx context.Context, g *sdf.Graph, points []Options, cfg PlanConfig) ([]*Result, error) {
	outs, err := RunGridOutcomes(ctx, g, points, cfg)
	if err != nil {
		return nil, err
	}
	res := make([]*Result, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return nil, o.Err
		}
		res[i] = o.Result
	}
	return res, nil
}
