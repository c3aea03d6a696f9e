package pass

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"unsafe"

	"repro/internal/alloc"
	"repro/internal/lifetime"
	"repro/internal/num"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/sdf"
)

// Store is the persistent artifact store consulted by the Plan executor: a
// content-addressed byte store (internal/nodestore on disk, any map in
// tests). Get returns the payload published under key; Put publishes one.
// Both must be safe for concurrent use — plan levels run their nodes in
// parallel. Put may be dropped silently (the store is a cache); Get must
// never return bytes other than those Put under the same key.
//
// A Store that also implements Tier (a *nodestore.Store does) keeps parsed
// payloads beside its bytes: the executor recalls a node from the tier
// before it calls Get, and a store without one has every payload read and
// parsed.
type Store interface {
	Get(key string) ([]byte, bool)
	Put(key string, data []byte)
}

// Tier is the optional in-memory tier of a Store: parsed payloads, held by
// key. The executor keeps the parse of every payload it reads through Get
// (after the store verified it) or has just published under key, and
// recalls it on the next probe of key instead of reading and parsing the
// payload again. A parse is name-free and shared by every plan that recalls
// it; the executor binds it to its own graph. Keep may drop the value (the
// tier is a cache, and it holds nothing for a key whose payload the store
// does not hold); Recall must return only a value kept under the same key.
// size is what the value costs the tier, in bytes. Both must be safe for
// concurrent use.
type Tier interface {
	Recall(key string) (any, bool)
	Keep(key string, v any, size int64)
}

// StoreVersion is the version preamble mixed into every store key. Bump it
// whenever an artifact encoding or a key projection changes incompatibly:
// old entries then live under unreachable keys and age out, instead of
// aliasing the new schema. The storeKeyMap mirror below ties this constant
// to the Options shape the keys cover.
const StoreVersion = "pass-node/v2"

// storeKeyMap keeps node identities and store keys complete: sdflint's
// keycomplete analyzer checks it mirrors Options field for field, and each
// field is annotated with the option projection that carries it, or with
// the reason it needs none. A projection's bytes are both half of the plan
// node identity (NewPlan interns on parent node + projection) and part of
// the persistent store key, so adding an Options knob forces one decision
// that covers both. Forgetting it would let two configurations silently
// alias one deduplicated node, and one store entry across daemon restarts.
// Changing how an existing field is projected requires bumping
// StoreVersion.
//
//lint:keymap Options
type storeKeyMap struct {
	Strategy      OrderStrategy    // orderOpts (and every node and key chained below the order)
	Order         []sdf.ActorID    // orderOpts, custom strategies only
	Looping       LoopAlg          // schedOpts; FlatLoops additionally pulls the words projection into the store key (its DP cost reads Words)
	Allocators    []alloc.Strategy // allocOpts, one alloc node and key per allocator
	Verify        bool             // assemble-only: per-point leaf, never shared or stored
	VerifyPeriods int              // assemble-only: per-point leaf, never shared or stored
	Merging       bool             // assemble-only: per-point leaf, never shared or stored
	Partitions    int              // partitionOpts (segalloc inherits it through its parent partition node and chained hash)
}

// Option projections: one function per pass kind that reads options, each
// returning the bytes of exactly the Options fields that pass reads. The
// repetitions, lifetimes and segalloc passes read none; the repetitions node
// is the plan's root, the other two are identified by their parent alone.

// orderOpts projects the ordering fields: the strategy, plus the explicit
// actor list for custom orders.
func orderOpts(strategy OrderStrategy, custom []sdf.ActorID) []byte {
	out := binary.AppendVarint(nil, int64(strategy))
	if strategy == CustomOrder {
		for _, a := range custom {
			out = binary.AppendVarint(out, int64(a))
		}
	}
	return out
}

// schedOpts projects the loop-hierarchy algorithm.
func schedOpts(looping LoopAlg) []byte {
	return binary.AppendVarint(nil, int64(looping))
}

// allocOpts projects one allocator strategy.
func allocOpts(strat alloc.Strategy) []byte {
	return binary.AppendVarint(nil, int64(strat))
}

// partitionOpts projects the worker count.
func partitionOpts(partitions int) []byte {
	return binary.AppendVarint(nil, int64(partitions))
}

// kindTag names each pass kind inside store keys. The switch deliberately
// has no default clause: sdflint's exhaustive analyzer then fails the build
// the moment a new Kind is declared without deciding its store treatment
// (either a tag here or an explicit "never stored" case).
func kindTag(k Kind) string {
	switch k {
	case KindRepetitions:
		panic("pass: repetitions come from NewPlan's balance-equation solve and are never stored")
	case KindOrder:
		return "order"
	case KindSchedule:
		return "sched"
	case KindLifetimes:
		return "life"
	case KindAlloc:
		return "alloc"
	case KindPartition:
		return "part"
	case KindSegalloc:
		return "seg"
	case KindAssemble:
		panic("pass: assemble artifacts are per-point (verify/merge options differ) and are never stored")
	}
	panic(fmt.Sprintf("pass: kind %d has no store tag", int(k)))
}

// Store key design — projection digests with hash chaining.
//
// A plan node's identity is local to one plan over one graph; a store key
// must also identify the graph. Hashing the whole graph would make ANY edit
// change EVERY key: sound, but useless for incremental recompilation. Store
// keys instead cover, per stage, the stage's option projection plus exactly
// the graph fields that stage's pass reads:
//
//	order        topology + rates + delays        (RPMC cut costs read tnse + delay; APGAN clusters read rates)
//	schedule     order artifact + topology + rates + delays [+ words iff FlatLoops]
//	             (the loop DPs cost edges by tnse + delay; FlatLoops' cost is BufMem, which scales by Words)
//	lifetimes    schedule artifact + topology + rates + delays + words
//	             (the payload carries BufMem, MCO and MCP too: all scale by Words)
//	alloc        lifetimes artifact + allocator   (packing reads nothing but the intervals)
//
// Two consequences. First, actor NAMES appear in no projection and no
// artifact encoding (interval names are reconstructed from the live graph at
// bind), so renaming an actor invalidates nothing below assemble — the
// whole pipeline is loaded and only the per-point assembly re-runs. Second,
// downstream keys chain through the upstream artifact's payload hash rather
// than its inputs: if a delay edit happens to produce the identical lexical
// order, every (schedule, lifetimes, allocation) computed under that order
// for OTHER delay values stays invalid (delay is in their projections), but
// the chain means an edit that does not change an upstream artifact's bytes
// cannot spuriously invalidate a downstream entry through key churn alone.
type storeKeys struct {
	rates  []byte // actor count + per-edge (src, dst, prod, cons)
	delays []byte // per-edge delay
	words  []byte // per-edge words
}

// newStoreKeys precomputes the graph projections once per plan run. The
// buffers are sized for two-byte varints (values below 8192), so a typical
// graph's projections allocate once each.
func newStoreKeys(g *sdf.Graph) *storeKeys {
	ne := g.NumEdges()
	sk := &storeKeys{
		rates:  make([]byte, 0, 2*binary.MaxVarintLen64+8*ne),
		delays: make([]byte, 0, 2*ne),
		words:  make([]byte, 0, 2*ne),
	}
	sk.rates = binary.AppendVarint(sk.rates, int64(g.NumActors()))
	sk.rates = binary.AppendVarint(sk.rates, int64(g.NumEdges()))
	for _, e := range g.Edges() {
		sk.rates = binary.AppendVarint(sk.rates, int64(e.Src))
		sk.rates = binary.AppendVarint(sk.rates, int64(e.Dst))
		sk.rates = binary.AppendVarint(sk.rates, e.Prod)
		sk.rates = binary.AppendVarint(sk.rates, e.Cons)
		sk.delays = binary.AppendVarint(sk.delays, e.Delay)
		sk.words = binary.AppendVarint(sk.words, e.Words)
	}
	return sk
}

// storeDigest is the single key constructor: hex SHA-256 over the version
// preamble, the kind tag, and length-prefixed parts (length prefixes keep
// adjacent variable-length parts from aliasing).
func storeDigest(kind Kind, parts ...[]byte) string {
	h := sha256.New()
	h.Write([]byte(StoreVersion))
	h.Write([]byte{'\n'})
	h.Write([]byte(kindTag(kind)))
	var lenbuf [binary.MaxVarintLen64]byte
	for _, p := range parts {
		n := binary.PutVarint(lenbuf[:], int64(len(p)))
		h.Write(lenbuf[:n])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (sk *storeKeys) orderKey(strategy OrderStrategy, custom []sdf.ActorID) string {
	return storeDigest(KindOrder, sk.rates, sk.delays, orderOpts(strategy, custom))
}

func (sk *storeKeys) schedKey(orderHash []byte, looping LoopAlg) string {
	parts := [][]byte{orderHash, sk.rates, sk.delays, schedOpts(looping)}
	if looping == FlatLoops {
		parts = append(parts, sk.words)
	}
	return storeDigest(KindSchedule, parts...)
}

func (sk *storeKeys) lifeKey(schedHash []byte) string {
	return storeDigest(KindLifetimes, schedHash, sk.rates, sk.delays, sk.words)
}

// allocStoreKey needs no graph projection at all: allocation reads nothing
// but the lifetime intervals, whose bytes the chained hash pins, and the
// interval enumeration is name-free (lifetime.ByStart/ByDuration tie-break
// by input order, never by name).
func allocStoreKey(lifeHash []byte, strat alloc.Strategy) string {
	return storeDigest(KindAlloc, lifeHash, allocOpts(strat))
}

// partitionStoreKey covers the phased schedule's inputs: the lexical order
// (chained hash), the precedence structure (rates + delays — precedence and
// levels read delay against consumed-per-period, the cost model reads
// rates), and the worker count.
func partitionStoreKey(sk *storeKeys, orderHash []byte, partitions int) string {
	return storeDigest(KindPartition, orderHash, sk.rates, sk.delays, partitionOpts(partitions))
}

// segallocStoreKey covers the segmented allocation's inputs: the partition
// artifact (chained hash) plus rates, delays and words — buffer sizes are
// (delay + TNSE) * words.
func segallocStoreKey(sk *storeKeys, partHash []byte) string {
	return storeDigest(KindSegalloc, partHash, sk.rates, sk.delays, sk.words)
}

// payloadHash is the chaining hash of one stored artifact's bytes.
func payloadHash(data []byte) []byte {
	sum := sha256.Sum256(data)
	return sum[:]
}

// Artifact encodings. All varints, all name-free, all deterministic (the
// determinism lint covers this package). A payload loads in two steps, on
// every path: parse walks the varints and checks every bound against the
// graph shape its key covers, reading no actor name, and bind ties the
// parse to the live graph (a Schedule header, interval names, placements
// pointing at the intervals). A parse therefore serves every graph whose
// key matches, renames included, and is what the Tier holds.
// encode(bind(parse(b))) == b, and bind(parse(encode(a))) is semantically
// identical to a. Parsers reject trailing bytes and padded varints, so a
// payload from a mismatched key version fails loudly into the recompute
// path instead of misdecoding.

// parsed is the name-free parse of one payload; size is its heap
// footprint in bytes, which the tier is charged.
type parsed interface{ size() int64 }

// Heap sizes of the parsed forms' elements.
const (
	ptrSize      = int64(unsafe.Sizeof(uintptr(0)))
	intSize      = int64(unsafe.Sizeof(0))
	nodeSize     = int64(unsafe.Sizeof(sched.Node{}))
	intervalSize = int64(unsafe.Sizeof(lifetime.Interval{}))
	periodSize   = int64(unsafe.Sizeof(lifetime.Period{}))
	blockSize    = int64(unsafe.Sizeof(partition.Block{}))
	segmentSize  = int64(unsafe.Sizeof(partition.Segment{}))
	sliceSize    = 3 * ptrSize
)

type decoder struct {
	data []byte
	err  error
}

func (d *decoder) int64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.err = fmt.Errorf("pass: truncated store payload")
		return 0
	}
	// A padded varint (a zero final byte after continuation bytes) decodes
	// but would not re-encode to the same bytes.
	if n > 1 && d.data[n-1] == 0 {
		d.err = fmt.Errorf("pass: non-canonical varint in store payload")
		return 0
	}
	d.data = d.data[n:]
	return v
}

// count reads a non-negative length bounded by max (guarding allocations
// against corrupted payloads).
func (d *decoder) count(max int) int {
	v := d.int64()
	if d.err == nil && (v < 0 || v > int64(max)) {
		d.err = fmt.Errorf("pass: store payload count %d out of range [0,%d]", v, max)
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.data) != 0 {
		return fmt.Errorf("pass: %d trailing bytes in store payload", len(d.data))
	}
	return nil
}

// varints counts the varints in data: each ends in the one byte of it below
// 0x80. It sizes a parser's slabs from the payload in hand, exactly when
// the payload is well formed; a corrupt one is rejected either way.
func varints(data []byte) int {
	n := 0
	for _, c := range data {
		n += int(^c >> 7)
	}
	return n
}

func encodeOrder(ord Order) []byte {
	out := binary.AppendVarint(nil, int64(len(ord.Actors)))
	for _, a := range ord.Actors {
		out = binary.AppendVarint(out, int64(a))
	}
	return out
}

// parseOrder parses an order payload. An order is name-free as it stands,
// so it binds to any graph unchanged.
func parseOrder(g *sdf.Graph, data []byte) (Order, error) {
	d := &decoder{data: data}
	n := d.count(g.NumActors())
	if d.err == nil && n != g.NumActors() {
		return Order{}, fmt.Errorf("pass: stored order has %d actors, graph has %d", n, g.NumActors())
	}
	actors := make([]sdf.ActorID, n)
	seen := make([]bool, n)
	for i := range actors {
		a := d.int64()
		if d.err != nil {
			break
		}
		if a < 0 || a >= int64(n) || seen[a] {
			return Order{}, fmt.Errorf("pass: stored order is not a permutation")
		}
		seen[a] = true
		actors[i] = sdf.ActorID(a)
	}
	if err := d.finish(); err != nil {
		return Order{}, err
	}
	return Order{Actors: actors}, nil
}

func (o Order) size() int64 { return sliceSize + int64(len(o.Actors))*intSize }

// Schedule terms are encoded structurally (preorder, tagged), not through
// the textual round-trip: the text form is canonical for humans, but the
// store must reproduce the exact term tree the DP built.
const (
	schedLeafTag = 0
	schedLoopTag = 1
)

func encodeSched(ls LoopedSchedule) []byte {
	out := binary.AppendVarint(nil, ls.DPCost)
	out = binary.AppendVarint(out, int64(len(ls.Schedule.Body)))
	for _, n := range ls.Schedule.Body {
		out = appendSchedNode(out, n)
	}
	return out
}

func appendSchedNode(out []byte, n *sched.Node) []byte {
	if n.IsLeaf() {
		out = binary.AppendVarint(out, schedLeafTag)
		out = binary.AppendVarint(out, n.Count)
		out = binary.AppendVarint(out, int64(n.Actor))
		return out
	}
	out = binary.AppendVarint(out, schedLoopTag)
	out = binary.AppendVarint(out, n.Count)
	out = binary.AppendVarint(out, int64(len(n.Children)))
	for _, c := range n.Children {
		out = appendSchedNode(out, c)
	}
	return out
}

// parsedSched is a schedule payload: the term tree and the DP cost, without
// the Schedule header that names a graph.
type parsedSched struct {
	body  []*sched.Node
	cost  int64
	terms int
}

func (ps parsedSched) bind(g *sdf.Graph) LoopedSchedule {
	return LoopedSchedule{Schedule: &sched.Schedule{Graph: g, Body: ps.body}, DPCost: ps.cost}
}

// size counts the node slab and the body pointer slab: every term sits in
// one of each.
func (ps parsedSched) size() int64 { return 2*sliceSize + int64(ps.terms)*(nodeSize+ptrSize) }

// schedDecoder bounds a parsed schedule to budget terms in all: every body
// reserves its length from the budget before taking it, so a corrupt
// payload can neither allocate nor nest past the graph's bound. Terms come
// from one node slab and bodies from one pointer slab, so a parse
// allocates a constant number of times whatever the term count.
type schedDecoder struct {
	decoder
	actors int
	budget int
	nodes  []sched.Node
	ptrs   []*sched.Node
}

func parseSched(g *sdf.Graph, data []byte) (parsedSched, error) {
	// A single appearance schedule has one leaf per actor and, after any
	// sane looping pass, fewer loops than leaves; 4n+4 terms leave headroom
	// for degenerate (but valid) nests. The payload is the cost, the body
	// length and three varints per term (tag, count, then actor or body
	// length), which sizes the slabs.
	budget := 4*g.NumActors() + 4
	slab := min(budget, max(varints(data)-2, 0)/3)
	d := &schedDecoder{
		decoder: decoder{data: data}, actors: g.NumActors(), budget: budget,
		nodes: make([]sched.Node, 0, slab),
		ptrs:  make([]*sched.Node, 0, slab),
	}
	cost := d.int64()
	body := d.body()
	if err := d.finish(); err != nil {
		return parsedSched{}, err
	}
	return parsedSched{body: body, cost: cost, terms: len(d.nodes)}, nil
}

// body reserves n contiguous pointer slots before parsing any child, so
// nested bodies land after it; the capacity is clipped so no body can grow
// into its neighbour.
func (d *schedDecoder) body() []*sched.Node {
	n := d.count(d.budget)
	d.budget -= n
	lo := len(d.ptrs)
	d.ptrs = slices.Grow(d.ptrs, n)[:lo+n]
	body := d.ptrs[lo : lo+n : lo+n]
	for i := range body {
		if body[i] = d.node(); d.err != nil {
			break
		}
	}
	return body
}

// node takes the next slot of the node slab. A well-formed payload fills
// the slab exactly; a corrupt one may overrun it (up to the budget), and
// then earlier terms keep their still valid slots in the old array.
func (d *schedDecoder) node() *sched.Node {
	d.nodes = append(d.nodes, sched.Node{Count: 1})
	n := &d.nodes[len(d.nodes)-1]
	tag := d.int64()
	count := d.int64()
	if d.err == nil && count < 1 {
		d.err = fmt.Errorf("pass: stored schedule has loop count %d", count)
	}
	switch tag {
	case schedLeafTag:
		a := d.int64()
		if d.err == nil && (a < 0 || a >= int64(d.actors)) {
			d.err = fmt.Errorf("pass: stored schedule fires unknown actor %d", a)
		}
		n.Count, n.Actor = count, sdf.ActorID(a)
	case schedLoopTag:
		n.Count = count
		n.Children = d.body()
		if d.err == nil && len(n.Children) == 0 {
			d.err = fmt.Errorf("pass: stored schedule has an empty loop body")
		}
	default:
		if d.err == nil {
			d.err = fmt.Errorf("pass: unknown schedule node tag %d", tag)
		}
	}
	return n
}

// encodeLife stores the period length and the metrics ahead of the
// intervals.
func encodeLife(lf Lifetimes) []byte {
	out := binary.AppendVarint(nil, lf.PeriodLen)
	out = binary.AppendVarint(out, lf.BufMem)
	out = binary.AppendVarint(out, lf.MCO)
	out = binary.AppendVarint(out, lf.MCP)
	out = binary.AppendVarint(out, int64(len(lf.Intervals)))
	for _, iv := range lf.Intervals {
		out = binary.AppendVarint(out, iv.Size)
		out = binary.AppendVarint(out, iv.Start)
		out = binary.AppendVarint(out, iv.Dur)
		out = binary.AppendVarint(out, int64(len(iv.Periods)))
		for _, p := range iv.Periods {
			out = binary.AppendVarint(out, p.A)
			out = binary.AppendVarint(out, int64(p.Count))
		}
	}
	return out
}

// parsedLife is a lifetimes payload: the metrics and one unnamed interval
// per edge, whose periods share one array.
type parsedLife struct {
	periodLen, bufMem, mco, mcp int64
	intervals                   []lifetime.Interval
	periods                     int
}

// bind names a copy of the intervals from g and gives the artifact a fresh
// intersection-graph cache; the periods stay shared.
func (pl parsedLife) bind(g *sdf.Graph) Lifetimes {
	return Lifetimes{
		Intervals: named(g, pl.intervals),
		PeriodLen: pl.periodLen, BufMem: pl.bufMem, MCO: pl.mco, MCP: pl.mcp,
		wig: &wigOnce{},
	}
}

func (pl parsedLife) size() int64 {
	return 2*sliceSize + int64(len(pl.intervals))*intervalSize + int64(pl.periods)*periodSize
}

// parseLife parses a lifetimes payload: intervals and metrics. Every
// interval must pass Validate: the intersection test and the liveness test
// divide by its shifts. The metrics must be consistent with the intervals
// (0 < max size <= MCO <= MCP <= sum of sizes), the bufmem non-negative and
// the period non-empty; a payload that fails any bound is a miss, never a
// wrong metric.
func parseLife(g *sdf.Graph, data []byte) (parsedLife, error) {
	d := &decoder{data: data}
	pl := parsedLife{periodLen: d.int64(), bufMem: d.int64(), mco: d.int64(), mcp: d.int64()}
	n := d.count(g.NumEdges())
	if d.err == nil && n != g.NumEdges() {
		return parsedLife{}, fmt.Errorf("pass: stored lifetimes cover %d edges, graph has %d", n, g.NumEdges())
	}
	// Each period is one enclosing loop of the edge's firing blocks, and a
	// schedule tree over n actors has fewer than 2n loops. The intervals
	// come from one slab and their periods from one backing array: after
	// the header, the payload is four varints per interval and two per
	// period.
	maxPeriods := 2 * g.NumActors()
	var maxSize, sumSize int64
	pl.intervals = make([]lifetime.Interval, n)
	periods := make([]lifetime.Period, 0, min(max(varints(d.data)-4*n, 0)/2, n*maxPeriods))
	for i := range pl.intervals {
		iv := &pl.intervals[i]
		iv.Size, iv.Start, iv.Dur = d.int64(), d.int64(), d.int64()
		if np := d.count(maxPeriods); np > 0 {
			lo := len(periods)
			for j := 0; j < np && d.err == nil; j++ {
				periods = append(periods, lifetime.Period{A: d.int64(), Count: d.int64()})
			}
			iv.Periods = periods[lo:len(periods):len(periods)]
		}
		if d.err != nil {
			break
		}
		if err := iv.Validate(); err != nil {
			return parsedLife{}, fmt.Errorf("pass: stored lifetimes: %w", err)
		}
		maxSize = max(maxSize, iv.Size)
		var err error
		if sumSize, err = num.CheckedAdd(sumSize, iv.Size); err != nil {
			return parsedLife{}, fmt.Errorf("pass: stored lifetime sizes: %w", err)
		}
	}
	if err := d.finish(); err != nil {
		return parsedLife{}, err
	}
	if pl.periodLen <= 0 || pl.bufMem < 0 || maxSize > pl.mco || pl.mco > pl.mcp || pl.mcp > sumSize {
		return parsedLife{}, fmt.Errorf("pass: stored lifetime metrics out of bounds "+
			"(period %d, bufmem %d, mco %d, mcp %d; interval sizes max %d, sum %d)",
			pl.periodLen, pl.bufMem, pl.mco, pl.mcp, maxSize, sumSize)
	}
	pl.periods = len(periods)
	return pl, nil
}

// named returns pointers into a copy of the unnamed intervals ivs, one per
// edge of g in edge order, each labelled "src->dst" from g. The copies
// come from one slab and their names from one string.
func named(g *sdf.Graph, ivs []lifetime.Interval) []*lifetime.Interval {
	slab := slices.Clone(ivs)
	out := make([]*lifetime.Interval, len(slab))
	names, off := edgeNames(g, len(slab)), 0
	for i := range slab {
		e := g.Edge(sdf.EdgeID(i))
		end := off + len(g.Actor(e.Src).Name) + len("->") + len(g.Actor(e.Dst).Name)
		slab[i].Name, off = names[off:end], end
		out[i] = &slab[i]
	}
	return out
}

// edgeNames returns the "src->dst" labels of the first n edges of g,
// concatenated into one string.
func edgeNames(g *sdf.Graph, n int) string {
	size := 0
	for _, e := range g.Edges()[:n] {
		size += len(g.Actor(e.Src).Name) + len("->") + len(g.Actor(e.Dst).Name)
	}
	var b strings.Builder
	b.Grow(size)
	for _, e := range g.Edges()[:n] {
		b.WriteString(g.Actor(e.Src).Name)
		b.WriteString("->")
		b.WriteString(g.Actor(e.Dst).Name)
	}
	return b.String()
}

// encodeAlloc stores placements as (edge index, offset) pairs in placement
// order: edge indices rather than interval copies, because downstream
// consumers (the simulator's OffsetOf, assembly) compare interval POINTERS
// against the Lifetimes artifact — bind must hand back placements
// referencing the very intervals of the plan's in-memory Lifetimes artifact.
func encodeAlloc(lf Lifetimes, al Allocation) ([]byte, error) {
	idxOf := make(map[*lifetime.Interval]int, len(lf.Intervals))
	for i, iv := range lf.Intervals {
		idxOf[iv] = i
	}
	out := binary.AppendVarint(nil, al.Alloc.Total)
	out = binary.AppendVarint(out, int64(len(al.Alloc.Placements)))
	for _, p := range al.Alloc.Placements {
		i, ok := idxOf[p.Interval]
		if !ok {
			return nil, fmt.Errorf("pass: allocation places an interval missing from its lifetimes artifact")
		}
		out = binary.AppendVarint(out, int64(i))
		out = binary.AppendVarint(out, p.Offset)
	}
	return out, nil
}

// parsedAlloc is an allocation payload: the image size and, in placement
// order, each placed interval's edge index and offset.
type parsedAlloc struct {
	total  int64
	placed []placedEdge
}

type placedEdge struct {
	edge   int
	offset int64
}

// bind points the placements at the intervals of lf, the Lifetimes
// artifact of the node's parent.
func (pa parsedAlloc) bind(lf Lifetimes, strat alloc.Strategy) Allocation {
	placements := make([]alloc.Placement, len(pa.placed))
	for i, p := range pa.placed {
		placements[i] = alloc.Placement{Interval: lf.Intervals[p.edge], Offset: p.offset}
	}
	return Allocation{Strategy: strat, Alloc: &alloc.Allocation{Placements: placements, Total: pa.total}}
}

func (pa parsedAlloc) size() int64 { return sliceSize + int64(len(pa.placed))*(intSize+8) }

// parseAlloc parses one allocator leaf's payload against lf, the Lifetimes
// artifact its key chains to; it reads only the interval sizes. The result
// skips alloc.Verify: the allocation was verified when computed, the frame
// checksum pins its integrity, and the chained key pins that these
// intervals are the ones it was computed for. Every placement must still
// lie inside the stored image, which executors and the C emitter index
// without further checks.
func parseAlloc(lf Lifetimes, data []byte) (parsedAlloc, error) {
	d := &decoder{data: data}
	total := d.int64()
	if d.err == nil && total < 0 {
		return parsedAlloc{}, fmt.Errorf("pass: stored allocation image of %d cells", total)
	}
	n := d.count(len(lf.Intervals))
	if d.err == nil && n != len(lf.Intervals) {
		return parsedAlloc{}, fmt.Errorf("pass: stored allocation places %d intervals, lifetimes has %d", n, len(lf.Intervals))
	}
	placed := make([]placedEdge, n)
	seen := make([]bool, len(lf.Intervals))
	for i := range placed {
		idx := d.count(len(lf.Intervals) - 1)
		off := d.int64()
		if d.err != nil {
			break
		}
		if seen[idx] {
			return parsedAlloc{}, fmt.Errorf("pass: stored allocation places edge %d twice", idx)
		}
		if size := lf.Intervals[idx].Size; off < 0 || off > total-size {
			return parsedAlloc{}, fmt.Errorf("pass: stored placement at %d..%d outside a %d-cell image", off, off+size, total)
		}
		seen[idx] = true
		placed[i] = placedEdge{edge: idx, offset: off}
	}
	if err := d.finish(); err != nil {
		return parsedAlloc{}, err
	}
	return parsedAlloc{total: total, placed: placed}, nil
}

// encodePartition stores the canonical (P, assign, phaseOf) encoding; the
// executable phase lists and worker loads are derived deterministically at
// parse (partition.Rebuild), which also re-validates the structural
// invariants against the live graph.
func encodePartition(part Partition) []byte {
	p := part.Part
	out := binary.AppendVarint(nil, int64(p.P))
	out = binary.AppendVarint(out, int64(len(p.Assign)))
	for _, w := range p.Assign {
		out = binary.AppendVarint(out, int64(w))
	}
	for _, ph := range p.PhaseOf {
		out = binary.AppendVarint(out, int64(ph))
	}
	return out
}

// maxPartitions bounds the parsed worker count; the service caps requests
// far below this.
const maxPartitions = 1 << 16

// parsePartition parses a partition payload for the node that asked for
// partitions workers. A payload declaring any other worker count is
// corrupt: executors start one worker per declared worker, so it must never
// stand in for the node's own P. A partition is name-free as it stands, so
// it binds to any graph unchanged.
func parsePartition(g *sdf.Graph, rep Repetitions, ord Order, partitions int, data []byte) (Partition, error) {
	d := &decoder{data: data}
	pw := d.count(maxPartitions)
	if d.err == nil && pw != partitions {
		return Partition{}, fmt.Errorf("pass: stored partition has %d workers, node wants %d", pw, partitions)
	}
	n := d.count(g.NumActors())
	if d.err == nil && n != g.NumActors() {
		return Partition{}, fmt.Errorf("pass: stored partition covers %d actors, graph has %d", n, g.NumActors())
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = int(d.int64())
	}
	phaseOf := make([]int, n)
	for i := range phaseOf {
		phaseOf[i] = int(d.int64())
	}
	if err := d.finish(); err != nil {
		return Partition{}, err
	}
	p, err := partition.Rebuild(g, rep.Q, ord.Actors, pw, assign, phaseOf)
	if err != nil {
		return Partition{}, err
	}
	return Partition{Part: p}, nil
}

func (part Partition) size() int64 {
	p := part.Part
	n := int64(len(p.Assign)+len(p.PhaseOf)+len(p.Load))*intSize + 3*sliceSize
	for _, ph := range p.Phases {
		n += 2 * sliceSize
		for _, w := range ph.Workers {
			n += sliceSize + int64(len(w))*blockSize
		}
	}
	return n
}

// encodeSegalloc stores the segment layout and the per-edge routing +
// absolute offsets; the phase-axis intervals and buffer sizes are pure
// arithmetic over (graph, q, partition) and are re-derived at parse
// (partition.RebuildSeg) rather than persisted — no first-fit re-run either
// way, the stored offsets are authoritative.
func encodeSegalloc(seg SegmentedAllocation) []byte {
	s := seg.Seg
	out := binary.AppendVarint(nil, s.Total)
	out = binary.AppendVarint(out, int64(len(s.Segments)))
	for _, sg := range s.Segments {
		out = binary.AppendVarint(out, int64(sg.Worker))
		out = binary.AppendVarint(out, sg.Base)
		out = binary.AppendVarint(out, sg.Cells)
	}
	out = binary.AppendVarint(out, int64(len(s.EdgeSeg)))
	for i, si := range s.EdgeSeg {
		out = binary.AppendVarint(out, int64(si))
		out = binary.AppendVarint(out, s.Offsets[i])
	}
	return out
}

// parsedSeg is a segmented allocation with its phase-axis intervals
// unnamed: the buffers' layout labels them, so bind names them from the
// live graph.
type parsedSeg struct {
	seg       partition.SegAlloc // Intervals nil
	intervals []lifetime.Interval
}

func (ps parsedSeg) bind(g *sdf.Graph) SegmentedAllocation {
	s := ps.seg
	s.Intervals = named(g, ps.intervals)
	return SegmentedAllocation{Seg: &s}
}

func (ps parsedSeg) size() int64 {
	s := ps.seg
	return 4*sliceSize + int64(len(ps.intervals))*intervalSize +
		int64(len(s.EdgeSeg)+len(s.Offsets)+len(s.Sizes))*intSize + int64(len(s.Segments))*segmentSize
}

func parseSegalloc(g *sdf.Graph, rep Repetitions, part Partition, data []byte) (parsedSeg, error) {
	d := &decoder{data: data}
	total := d.int64()
	ns := d.count(maxPartitions + 1)
	if d.err == nil && ns != part.Part.P+1 {
		return parsedSeg{}, fmt.Errorf("pass: stored segalloc has %d segments for %d workers", ns, part.Part.P)
	}
	segments := make([]partition.Segment, ns)
	for i := range segments {
		segments[i] = partition.Segment{
			Worker: int(d.int64()),
			Base:   d.int64(),
			Cells:  d.int64(),
		}
	}
	ne := d.count(g.NumEdges())
	if d.err == nil && ne != g.NumEdges() {
		return parsedSeg{}, fmt.Errorf("pass: stored segalloc covers %d edges, graph has %d", ne, g.NumEdges())
	}
	edgeSeg := make([]int, ne)
	offsets := make([]int64, ne)
	for i := range edgeSeg {
		edgeSeg[i] = int(d.int64())
		offsets[i] = d.int64()
	}
	if err := d.finish(); err != nil {
		return parsedSeg{}, err
	}
	s, err := partition.RebuildSeg(g, rep.Q, part.Part, edgeSeg, offsets, segments, total)
	if err != nil {
		return parsedSeg{}, err
	}
	ps := parsedSeg{seg: *s, intervals: make([]lifetime.Interval, len(s.Intervals))}
	ps.seg.Intervals = nil
	for i, iv := range s.Intervals {
		ps.intervals[i] = *iv
		ps.intervals[i].Name = ""
	}
	return ps, nil
}
