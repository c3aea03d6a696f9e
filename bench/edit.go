package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/nodestore"
	"repro/internal/pass"
	"repro/internal/randsdf"
	"repro/internal/sdf"
	"repro/internal/service"
)

// Edit-store session shape. Several documents are edited in turn against one
// store: a single random base graph makes the recompile times swing with its
// particular structure from one seed to the next, and interleaving a few
// documents averages that out without changing what one op does.
const (
	editDocs   = 4
	editActors = 150
	// editScript bounds the ops of one run; generated up front from the
	// seed, far more than a minute of recompiles needs.
	editScript = 200000
	// editSamples is how many edited graphs are recompiled without the store
	// and compared byte for byte.
	editSamples = 32
)

type editKind int

const (
	// editRename renames one actor: every stage's store key is
	// rename-invariant, so every stage loads.
	editRename editKind = iota
	// editWords changes one edge's token size: lifetimes and allocation
	// re-execute and publish.
	editWords
	// editDelay adds or removes one edge's initial tokens: the order and
	// every stage below it re-execute.
	editDelay
)

func (k editKind) String() string {
	switch k {
	case editRename:
		return "rename"
	case editWords:
		return "words"
	case editDelay:
		return "delay"
	default:
		panic(fmt.Sprintf("bench: unknown edit kind %d", int(k)))
	}
}

// edit is one scripted edit: which document, what kind, and a seed-drawn
// pick that selects the actor or edge.
type edit struct {
	doc  int
	kind editKind
	pick int
}

// applyEdit returns a copy of g with edit e (the i-th of the script)
// applied.
func applyEdit(g *sdf.Graph, e edit, i int) *sdf.Graph {
	out := sdf.New(g.Name)
	renamed := -1
	if e.kind == editRename {
		renamed = e.pick % g.NumActors()
	}
	for idx, a := range g.Actors() {
		name := a.Name
		if idx == renamed {
			name = fmt.Sprintf("n%d", i)
		}
		out.AddActor(name)
	}
	target := sdf.EdgeID(e.pick % g.NumEdges())
	for _, ed := range g.Edges() {
		delay, words := ed.Delay, ed.Words
		if ed.ID == target {
			switch e.kind {
			case editWords:
				words = words%4 + 1
			case editDelay:
				if delay > 0 {
					delay = 0
				} else {
					delay = ed.Prod * int64(1+e.pick%2)
				}
			case editRename:
			}
		}
		id := out.AddEdge(ed.Src, ed.Dst, ed.Prod, ed.Cons, delay)
		out.SetWords(id, words)
	}
	return out
}

// editSession is one edit-store run's state: the documents, the script, and
// the store they share.
type editSession struct {
	base   []*sdf.Graph
	cur    []*sdf.Graph // each document after the edits applied so far
	script []edit
	next   int // script position
	store  *nodestore.Store
	opts   service.CompileOptions
	hashes map[int][32]byte // artifact digest of every op, by script index
}

func newEditSession(ctx context.Context, seed int64, short bool) (*editSession, func(), error) {
	docs, actors, script := editDocs, editActors, editScript
	if short {
		docs, actors, script = 2, 30, 20000
	}
	rng := rand.New(rand.NewSource(seed))
	s := &editSession{hashes: map[int][32]byte{}}
	for d := 0; d < docs; d++ {
		s.base = append(s.base, randsdf.Graph(rng, randsdf.Config{Actors: actors}))
	}
	s.cur = append([]*sdf.Graph(nil), s.base...)
	for i := 0; i < script; i++ {
		kind := editRename
		switch r := rng.Intn(10); {
		case r >= 9:
			kind = editDelay
		case r >= 7:
			kind = editWords
		}
		s.script = append(s.script, edit{doc: i % docs, kind: kind, pick: rng.Int()})
	}
	opts, err := defaultOptions()
	if err != nil {
		return nil, nil, err
	}
	s.opts = opts
	dir, err := os.MkdirTemp("", "bench-store-")
	if err != nil {
		return nil, nil, err
	}
	teardown := func() { os.RemoveAll(dir) }
	if s.store, err = nodestore.Open(dir, 256<<20); err != nil {
		teardown()
		return nil, nil, err
	}
	// A cold compile of every document fills the store, as the first save
	// of each document would.
	for _, g := range s.base {
		if _, _, err := planCompile(ctx, g, s.store, s.opts); err != nil {
			teardown()
			return nil, nil, err
		}
	}
	return s, teardown, nil
}

// defaultOptions returns the normalized form of the service's default
// options, read back from an artifact so artifact bytes built from a plan
// result match service.CompileArtifact's.
func defaultOptions() (service.CompileOptions, error) {
	g := sdf.New("defaults")
	g.AddEdge(g.AddActor("a"), g.AddActor("b"), 2, 3, 0)
	data, _, err := service.CompileArtifact(g, service.CompileOptions{})
	if err != nil {
		return service.CompileOptions{}, err
	}
	var art struct {
		Options service.CompileOptions `json:"options"`
	}
	if err := json.Unmarshal(data, &art); err != nil {
		return service.CompileOptions{}, fmt.Errorf("reading artifact options: %w", err)
	}
	return art.Options, nil
}

// planCompile is one edit-store op: a single-point plan over the store, then
// the artifact bytes.
func planCompile(ctx context.Context, g *sdf.Graph, store pass.Store, opts service.CompileOptions) ([]byte, *pass.Plan, error) {
	p, err := pass.NewPlan(g, []pass.Options{serviceDefaults}, pass.PlanConfig{Store: store})
	if err != nil {
		return nil, nil, err
	}
	out := p.Run(ctx)[0]
	if out.Err != nil {
		return nil, nil, out.Err
	}
	data, err := service.ArtifactBytes(out.Result, opts)
	return data, p, err
}

// loop applies and recompiles scripted edits until d has elapsed. The
// edit itself is applied outside the timed region: the op is what happens
// after a user saves. op, when non-nil, replaces the plain recompile.
func (s *editSession) loop(ctx context.Context, d time.Duration,
	op func(g *sdf.Graph, id int64) ([]byte, time.Duration, error)) (*opTimes, allocs, error) {
	times := newOpTimes()
	a0 := readAllocs()
	for deadline := time.Now().Add(d); time.Now().Before(deadline) && s.next < len(s.script); s.next++ {
		if err := ctx.Err(); err != nil {
			return nil, allocs{}, err
		}
		i := s.next
		e := s.script[i]
		g := applyEdit(s.cur[e.doc], e, i)
		s.cur[e.doc] = g
		var (
			data    []byte
			elapsed time.Duration
			err     error
		)
		if op != nil {
			data, elapsed, err = op(g, int64(i))
		} else {
			t0 := time.Now()
			data, _, err = planCompile(ctx, g, s.store, s.opts)
			elapsed = time.Since(t0)
		}
		if err != nil {
			return nil, allocs{}, fmt.Errorf("edit %d (%s): %w", i, e.kind, err)
		}
		times.add(e.kind.String(), elapsed)
		s.hashes[i] = sha256.Sum256(data)
	}
	return times, readAllocs().since(a0), nil
}

// verify replays the script from the base documents and recompiles a seeded
// sample of the edited graphs without any store; it returns how many differ
// from what the store-assisted op produced.
func (s *editSession) verify(seed int64) (int64, error) {
	if s.next == 0 {
		return 0, nil
	}
	rng := rand.New(rand.NewSource(seed + 2))
	sample := map[int]bool{}
	for len(sample) < min(editSamples, s.next) {
		sample[rng.Intn(s.next)] = true
	}
	cur := append([]*sdf.Graph(nil), s.base...)
	var bad int64
	for i := 0; i < s.next; i++ {
		e := s.script[i]
		cur[e.doc] = applyEdit(cur[e.doc], e, i)
		if !sample[i] {
			continue
		}
		data, _, err := service.CompileArtifact(cur[e.doc], service.CompileOptions{})
		if err != nil {
			return 0, fmt.Errorf("store-less compile of edit %d: %w", i, err)
		}
		if sha256.Sum256(data) != s.hashes[i] {
			bad++
		}
	}
	return bad, nil
}

func runEditStore(ctx context.Context, cfg config) (*result, error) {
	s, teardown, setup, err := repeatSetup(setupCount(cfg), func() (*editSession, func(), error) {
		return newEditSession(ctx, cfg.seed, cfg.short)
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	res := newResult(cfg.trace)
	if cfg.trace {
		if err := traceEditStore(ctx, cfg, s, res); err != nil {
			return nil, err
		}
	} else {
		times, a, err := s.loop(ctx, cfg.measure(), nil)
		if err != nil {
			return nil, err
		}
		res.attempted = int64(times.n())
		res.set("setup_s", setup)
		res.set("op_ms", median(times.all))
		res.note("recompile_p99_ms", quantile(times.all, 0.99), "ms")
		res.note("ops_per_s", times.opsPerSecond(), "1/s")
		names, meds := times.classMedians()
		for i, n := range names {
			res.note("edit."+n+"_p50_ms", meds[i], "ms")
		}
		res.note("alloc_kb_per_op", a.kbPer(times.n()), "KiB")
	}
	bad, err := s.verify(cfg.seed)
	if err != nil {
		return nil, err
	}
	res.failed += bad
	return res, nil
}

// tracedStore wraps the pass-node store with a span around every Get and
// Put, and counts hits and bytes. Plan levels call it from several
// goroutines.
type tracedStore struct {
	store  pass.Store
	tr     *tracer
	op     int64
	parent int
	c      *storeCounts
}

type storeCounts struct {
	gets, hits, read, written atomic.Int64
}

func (t tracedStore) Get(key string) ([]byte, bool) {
	id := t.tr.begin(t.op, t.parent, "nodestore.get")
	data, ok := t.store.Get(key)
	t.tr.end(id)
	t.c.gets.Add(1)
	if ok {
		t.c.hits.Add(1)
		t.c.read.Add(int64(len(data)))
	}
	return data, ok
}

func (t tracedStore) Put(key string, data []byte) {
	id := t.tr.begin(t.op, t.parent, "nodestore.put")
	t.store.Put(key, data)
	t.tr.end(id)
	t.c.written.Add(int64(len(data)))
}

// traceEditStore measures half the time untraced, then half traced: each
// traced op is a root span holding the plan (whose store calls are child
// spans) and the artifact encoding.
func traceEditStore(ctx context.Context, cfg config, s *editSession, res *result) error {
	base, a, err := s.loop(ctx, cfg.phase(2), nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	counts := &storeCounts{}
	var executed, loaded int
	traced, _, err := s.loop(ctx, cfg.phase(2), func(g *sdf.Graph, op int64) ([]byte, time.Duration, error) {
		root := tr.begin(op, 0, "op")
		planID := tr.begin(op, root, "pass.plan")
		store := tracedStore{store: s.store, tr: tr, op: op, parent: planID, c: counts}
		p, err := pass.NewPlan(g, []pass.Options{serviceDefaults}, pass.PlanConfig{Store: store})
		if err != nil {
			return nil, 0, err
		}
		out := p.Run(ctx)[0]
		tr.end(planID)
		if out.Err != nil {
			return nil, 0, out.Err
		}
		encID := tr.begin(op, root, "service.encode")
		data, err := service.ArtifactBytes(out.Result, s.opts)
		tr.end(encID)
		elapsed := tr.end(root)
		for _, kc := range p.Stats() {
			executed += kc.Executed
			loaded += kc.Loaded
		}
		return data, elapsed, err
	})
	if err != nil {
		return err
	}
	res.attempted = int64(base.n() + traced.n())

	sum := tr.summary()
	ops := float64(traced.n())
	opTime := float64(sum.get("op").dur)
	for _, name := range []string{"nodestore.get", "nodestore.put", "pass.plan", "service.encode"} {
		self := sum.get(name).self
		res.set(name+".us", us(self)/ops)
		res.set(name+".share", ratio(float64(self), opTime))
	}
	res.set("nodestore.hit_ratio", ratio(float64(counts.hits.Load()), float64(counts.gets.Load())))
	res.set("nodestore.read_kb", float64(counts.read.Load())/1024/ops)
	res.set("nodestore.write_kb", float64(counts.written.Load())/1024/ops)
	res.set("pass.executed_per_op", float64(executed)/ops)
	res.set("pass.loaded_per_op", float64(loaded)/ops)
	for _, k := range []editKind{editRename, editWords, editDelay} {
		res.set("edit."+k.String()+"_p50_ms", median(base.byClass[k.String()]))
	}
	res.set("alloc_kb_per_op", a.kbPer(base.n()))
	res.set("trace.coverage", sum.coverage())
	res.set("trace.overhead", ratio(median(traced.all), median(base.all)))
	return tr.write(cfg.traceDir, "edit-store", res.metrics)
}
