package pass

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/goldentest"
	"repro/internal/lifetime"
	"repro/internal/sdf"
	"repro/internal/systems"
)

// mapStore is an in-memory Store for tests: the same contract as
// internal/nodestore without the disk.
type mapStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	hits int
	puts int
}

func newMapStore() *mapStore { return &mapStore{m: map[string][]byte{}} }

func (s *mapStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	data, ok := s.m[key]
	if ok {
		s.hits++
	}
	return data, ok
}

func (s *mapStore) Put(key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; ok {
		return
	}
	s.puts++
	s.m[key] = append([]byte(nil), data...)
}

// garbageStore answers every Get with bytes that cannot decode, modeling a
// store whose payloads survived the checksum but not the schema: the plan
// must fall back to executing, never fail, never misdecode.
type garbageStore struct{}

func (garbageStore) Get(key string) ([]byte, bool) { return []byte{0xff, 0x01, 0x7f}, true }
func (garbageStore) Put(key string, data []byte)   {}

// renamed returns a structural copy of g with every actor renamed.
func renamed(g *sdf.Graph) *sdf.Graph {
	out := sdf.New(g.Name + "-renamed")
	for _, a := range g.Actors() {
		out.AddActor("x_" + a.Name)
	}
	for _, e := range g.Edges() {
		id := out.AddEdge(e.Src, e.Dst, e.Prod, e.Cons, e.Delay)
		out.SetWords(id, e.Words)
	}
	return out
}

func TestStoreKeysNameInvariant(t *testing.T) {
	g := systems.SatelliteReceiver()
	a, b := newStoreKeys(g), newStoreKeys(renamed(g))
	if a.orderKey(RPMC, nil) != b.orderKey(RPMC, nil) {
		t.Error("order store key depends on actor names")
	}
	oh := []byte("orderhash")
	if a.schedKey(oh, SDPPOLoops) != b.schedKey(oh, SDPPOLoops) {
		t.Error("schedule store key depends on actor names")
	}
	if a.lifeKey(oh) != b.lifeKey(oh) {
		t.Error("lifetimes store key depends on actor names")
	}
}

func TestStoreKeysProjections(t *testing.T) {
	base := systems.SatelliteReceiver()

	delayed := base.Clone()
	// Clone copies edges; perturb a delay via rebuild (sdf has no edge
	// mutator for delay), so build a copy with one delay changed.
	delayed = sdf.New(base.Name)
	for _, a := range base.Actors() {
		delayed.AddActor(a.Name)
	}
	for _, e := range base.Edges() {
		d := e.Delay
		if e.ID == 0 {
			d += 3
		}
		id := delayed.AddEdge(e.Src, e.Dst, e.Prod, e.Cons, d)
		delayed.SetWords(id, e.Words)
	}

	worded := base.Clone()
	worded.SetWords(0, 7)

	b, dl, w := newStoreKeys(base), newStoreKeys(delayed), newStoreKeys(worded)
	oh := []byte("orderhash")

	// Delay edits: everything from ordering down reads delays.
	if b.orderKey(RPMC, nil) == dl.orderKey(RPMC, nil) {
		t.Error("order key survived a delay edit (RPMC reads delays)")
	}
	if b.schedKey(oh, SDPPOLoops) == dl.schedKey(oh, SDPPOLoops) {
		t.Error("schedule key survived a delay edit (loop DPs read delays)")
	}

	// Words edits: only FlatLoops' DP cost and the lifetimes payload (sizes
	// and bufmem) read Words; ordering and the non-flat loop DPs are
	// words-blind.
	if b.orderKey(RPMC, nil) != w.orderKey(RPMC, nil) {
		t.Error("order key changed on a words edit")
	}
	if b.schedKey(oh, SDPPOLoops) != w.schedKey(oh, SDPPOLoops) {
		t.Error("SDPPO schedule key changed on a words edit (SDPPO is words-blind)")
	}
	if b.schedKey(oh, FlatLoops) == w.schedKey(oh, FlatLoops) {
		t.Error("flat schedule key survived a words edit (flat DP cost is BufMem)")
	}
	if b.lifeKey(oh) == w.lifeKey(oh) {
		t.Error("lifetimes key survived a words edit")
	}

	// Chaining: a different upstream hash yields a different key.
	if b.schedKey([]byte("other"), SDPPOLoops) == b.schedKey(oh, SDPPOLoops) {
		t.Error("schedule key ignores the order hash")
	}
	if allocStoreKey([]byte("a"), alloc.FirstFitDuration) == allocStoreKey([]byte("b"), alloc.FirstFitDuration) {
		t.Error("alloc key ignores the lifetimes hash")
	}
	if allocStoreKey(oh, alloc.FirstFitDuration) == allocStoreKey(oh, alloc.FirstFitStart) {
		t.Error("alloc key ignores the strategy")
	}
}

func TestStoreKeyCustomOrder(t *testing.T) {
	g := systems.CDDAT()
	sk := newStoreKeys(g)
	ord := make([]sdf.ActorID, g.NumActors())
	for i := range ord {
		ord[i] = sdf.ActorID(i)
	}
	rev := make([]sdf.ActorID, len(ord))
	for i := range rev {
		rev[i] = ord[len(ord)-1-i]
	}
	if sk.orderKey(CustomOrder, ord) == sk.orderKey(CustomOrder, rev) {
		t.Error("custom order key ignores the actor list")
	}
	if sk.orderKey(RPMC, nil) == sk.orderKey(APGAN, nil) {
		t.Error("order key ignores the strategy")
	}
}

func TestKindTagPanicsOnAssemble(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("kindTag(KindAssemble) should panic: assembled results are never stored")
		}
	}()
	kindTag(KindAssemble)
}

func TestKindTagPanicsOnRepetitions(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("kindTag(KindRepetitions) should panic: q comes from NewPlan and is never stored")
		}
	}()
	kindTag(KindRepetitions)
}

// TestCodecRoundTrip runs the real passes on a real system and round-trips
// every artifact through its store encoding, checking semantic identity —
// including the pointer identity decodeAlloc must maintain into the
// lifetimes artifact.
func TestCodecRoundTrip(t *testing.T) {
	for _, g := range planGraphs() {
		rep, err := RunRepetitions(g)
		if err != nil {
			t.Fatal(err)
		}

		for _, strat := range []OrderStrategy{APGAN, RPMC} {
			ord, err := RunOrder(g, rep, strat, nil)
			if err != nil {
				t.Fatal(err)
			}
			gotOrd, err := decodeOrder(g, encodeOrder(ord))
			if err != nil || !reflect.DeepEqual(gotOrd, ord) {
				t.Fatalf("%s/%v: order round trip: %v", g.Name, strat, err)
			}

			for _, la := range []LoopAlg{SDPPOLoops, DPPOLoops, ChainPreciseLoops, FlatLoops} {
				ls, err := RunSchedule(g, rep, ord, la)
				if err != nil {
					t.Fatal(err)
				}
				gotLs, err := decodeSched(g, encodeSched(ls))
				if err != nil {
					t.Fatalf("%s/%v/%v: schedule decode: %v", g.Name, strat, la, err)
				}
				if gotLs.DPCost != ls.DPCost || gotLs.Schedule.String() != ls.Schedule.String() {
					t.Fatalf("%s/%v/%v: schedule round trip mismatch: %q vs %q",
						g.Name, strat, la, gotLs.Schedule.String(), ls.Schedule.String())
				}
				if !reflect.DeepEqual(gotLs.Schedule.Body, ls.Schedule.Body) {
					t.Fatalf("%s/%v/%v: schedule term tree differs structurally", g.Name, strat, la)
				}

				lf, err := RunLifetimes(rep, ls)
				if err != nil {
					t.Fatal(err)
				}
				gotLf, err := decodeLife(g, encodeLife(lf))
				if err != nil {
					t.Fatalf("%s/%v/%v: lifetimes decode: %v", g.Name, strat, la, err)
				}
				if !reflect.DeepEqual(gotLf.Intervals, lf.Intervals) {
					t.Fatalf("%s/%v/%v: lifetime intervals differ after round trip", g.Name, strat, la)
				}
				if gotLf.PeriodLen != lf.PeriodLen || gotLf.BufMem != lf.BufMem || gotLf.MCO != lf.MCO || gotLf.MCP != lf.MCP {
					t.Fatalf("%s/%v/%v: lifetime metrics differ after round trip", g.Name, strat, la)
				}

				al, err := RunAlloc(lf, alloc.FirstFitDuration)
				if err != nil {
					t.Fatal(err)
				}
				data, err := encodeAlloc(lf, al)
				if err != nil {
					t.Fatal(err)
				}
				gotAl, err := decodeAlloc(gotLf, alloc.FirstFitDuration, data)
				if err != nil {
					t.Fatalf("%s/%v/%v: alloc decode: %v", g.Name, strat, la, err)
				}
				if gotAl.Alloc.Total != al.Alloc.Total || len(gotAl.Alloc.Placements) != len(al.Alloc.Placements) {
					t.Fatalf("%s/%v/%v: alloc round trip totals differ", g.Name, strat, la)
				}
				for i, p := range gotAl.Alloc.Placements {
					want := al.Alloc.Placements[i]
					if p.Offset != want.Offset || !reflect.DeepEqual(*p.Interval, *want.Interval) {
						t.Fatalf("%s/%v/%v: placement %d differs after round trip", g.Name, strat, la, i)
					}
					// The decoded placement must reference the decoded
					// lifetimes artifact's interval object itself.
					found := false
					for _, iv := range gotLf.Intervals {
						if iv == p.Interval {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("%s/%v/%v: placement %d does not alias the lifetimes artifact", g.Name, strat, la, i)
					}
				}
			}
		}
	}
}

func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	g := systems.CDDAT()
	rep, _ := RunRepetitions(g)
	ord, _ := RunOrder(g, rep, RPMC, nil)
	ls, _ := RunSchedule(g, rep, ord, SDPPOLoops)
	lf, _ := RunLifetimes(rep, ls)

	if _, err := decodeOrder(g, nil); err == nil {
		t.Error("decodeOrder accepted an empty payload")
	}
	if _, err := decodeOrder(g, append(encodeOrder(ord), 0)); err == nil {
		t.Error("decodeOrder accepted trailing bytes")
	}
	if _, err := decodeOrder(g, encodeOrder(Order{Actors: make([]sdf.ActorID, g.NumActors())})); err == nil {
		t.Error("decodeOrder accepted a non-permutation")
	}
	// Padding the one-byte actor count with a zero continuation byte keeps
	// its value but not its bytes: a decoder that took it would re-encode a
	// different payload.
	enc := encodeOrder(ord)
	padded := append([]byte{enc[0] | 0x80, 0x00}, enc[1:]...)
	if _, err := decodeOrder(g, padded); err == nil || !strings.Contains(err.Error(), "non-canonical") {
		t.Errorf("decodeOrder on a padded varint: got %v, want a non-canonical varint error", err)
	}
	short := encodeSched(ls)
	if _, err := decodeSched(g, short[:len(short)-1]); err == nil {
		t.Error("decodeSched accepted a truncated payload")
	}
	if _, err := decodeLife(g, encodeLife(lf)[:3]); err == nil {
		t.Error("decodeLife accepted a truncated payload")
	}
	// A well-formed payload carrying an invalid interval: a zero shift
	// would divide by zero in the intersection and liveness tests.
	bad := lf
	bad.Intervals = make([]*lifetime.Interval, len(lf.Intervals))
	for i, iv := range lf.Intervals {
		c := *iv
		c.Periods = slices.Clone(iv.Periods)
		bad.Intervals[i] = &c
	}
	i := slices.IndexFunc(bad.Intervals, func(iv *lifetime.Interval) bool { return len(iv.Periods) > 0 })
	if i < 0 {
		t.Fatal("no periodic interval to corrupt")
	}
	bad.Intervals[i].Periods[0].A = 0
	if _, err := decodeLife(g, encodeLife(bad)); err == nil {
		t.Error("decodeLife accepted an interval with a zero shift")
	}
	al, _ := RunAlloc(lf, alloc.FirstFitStart)
	data, err := encodeAlloc(lf, al)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeAlloc(lf, alloc.FirstFitStart, data[:len(data)-1]); err == nil {
		t.Error("decodeAlloc accepted a truncated payload")
	}
}

// TestDecodeAllocRejectsOutOfImage: every stored placement must lie inside
// the stored image, because the executors and the C emitter index the image
// without further checks. A rejected payload is a store miss: the warm plan
// re-runs the allocator and returns the cold result.
func TestDecodeAllocRejectsOutOfImage(t *testing.T) {
	g := systems.CDDAT()
	pts := []Options{{Allocators: []alloc.Strategy{alloc.FirstFitStart}}}
	cold, err := CompileContext(context.Background(), g, pts[0])
	if err != nil {
		t.Fatal(err)
	}
	st := newMapStore()
	p1, err := NewPlan(g, pts, PlanConfig{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if out := p1.Run(context.Background())[0]; out.Err != nil {
		t.Fatal(out.Err)
	}
	lf := p1.lifes[0].out
	key := allocStoreKey(p1.lifes[0].hash, alloc.FirstFitStart)
	good, ok := st.m[key]
	if !ok {
		t.Fatal("allocation payload not published under its key")
	}
	al, err := decodeAlloc(lf, alloc.FirstFitStart, good)
	if err != nil {
		t.Fatalf("decodeAlloc rejected a real payload: %v", err)
	}
	for _, c := range []struct {
		name string
		mut  func(*alloc.Allocation)
	}{
		{"placement at total", func(a *alloc.Allocation) { a.Placements[0].Offset = a.Total }},
		{"negative offset", func(a *alloc.Allocation) { a.Placements[0].Offset = -1 }},
		{"negative total", func(a *alloc.Allocation) { a.Total = -1 }},
		{"image one cell short", func(a *alloc.Allocation) { a.Total-- }},
	} {
		bad := *al.Alloc
		bad.Placements = slices.Clone(bad.Placements)
		c.mut(&bad)
		data, err := encodeAlloc(lf, Allocation{Strategy: al.Strategy, Alloc: &bad})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeAlloc(lf, alloc.FirstFitStart, data); err == nil {
			t.Errorf("%s: decodeAlloc accepted the payload", c.name)
			continue
		}
		st.m[key] = data
		p2, err := NewPlan(g, pts, PlanConfig{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		out := p2.Run(context.Background())[0]
		if out.Err != nil {
			t.Fatalf("%s: %v", c.name, out.Err)
		}
		for _, kc := range p2.Stats() {
			if kc.Kind == KindAlloc && (kc.Executed != 1 || kc.Loaded != 0) {
				t.Errorf("%s: alloc executed/loaded = %d/%d, want 1/0", c.name, kc.Executed, kc.Loaded)
			}
		}
		if !reflect.DeepEqual(out.Result.Metrics, cold.Metrics) {
			t.Errorf("%s: metrics %+v, cold %+v", c.name, out.Result.Metrics, cold.Metrics)
		}
	}
}

type lifeCorruption struct {
	name string
	mut  func(*Lifetimes)
}

// lifeMetricCorruptions hand-corrupts each metric field of a lifetimes
// artifact past one of decodeLife's bounds, given the largest interval and
// the sum of all interval sizes.
func lifeMetricCorruptions(maxSize, sumSize int64) []lifeCorruption {
	return []lifeCorruption{
		{"period zero", func(lf *Lifetimes) { lf.PeriodLen = 0 }},
		{"period negative", func(lf *Lifetimes) { lf.PeriodLen = -4 }},
		{"bufmem negative", func(lf *Lifetimes) { lf.BufMem = -1 }},
		{"mco below largest interval", func(lf *Lifetimes) { lf.MCO = maxSize - 1 }},
		{"mco above mcp", func(lf *Lifetimes) { lf.MCO = lf.MCP + 1 }},
		{"mcp below mco", func(lf *Lifetimes) { lf.MCP = lf.MCO - 1 }},
		{"mcp above size sum", func(lf *Lifetimes) { lf.MCP = sumSize + 1 }},
	}
}

func sizeBounds(ivs []*lifetime.Interval) (maxSize, sumSize int64) {
	for _, iv := range ivs {
		maxSize = max(maxSize, iv.Size)
		sumSize += iv.Size
	}
	return maxSize, sumSize
}

func TestDecodeLifeRejectsCorruptMetrics(t *testing.T) {
	g := systems.CDDAT()
	rep, _ := RunRepetitions(g)
	ord, _ := RunOrder(g, rep, RPMC, nil)
	ls, _ := RunSchedule(g, rep, ord, SDPPOLoops)
	lf, err := RunLifetimes(rep, ls)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeLife(g, encodeLife(lf)); err != nil {
		t.Fatalf("decodeLife rejected a real payload: %v", err)
	}
	for _, c := range lifeMetricCorruptions(sizeBounds(lf.Intervals)) {
		bad := lf
		c.mut(&bad)
		if _, err := decodeLife(g, encodeLife(bad)); err == nil {
			t.Errorf("%s: decodeLife accepted the payload", c.name)
		}
	}
}

// TestPlanCorruptLifetimeMetricsRecompute plants each corrupted lifetimes
// payload under the real lifetimes key: the warm plan must treat it as a
// miss, re-run the lifetimes pass, and report the cold metrics.
func TestPlanCorruptLifetimeMetricsRecompute(t *testing.T) {
	g := systems.SatelliteReceiver()
	pts := []Options{{}}
	cold, err := CompileContext(context.Background(), g, pts[0])
	if err != nil {
		t.Fatal(err)
	}
	st := newMapStore()
	p1, err := NewPlan(g, pts, PlanConfig{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if out := p1.Run(context.Background())[0]; out.Err != nil {
		t.Fatal(out.Err)
	}
	key := newStoreKeys(g).lifeKey(p1.scheds[0].hash)
	good, ok := st.m[key]
	if !ok {
		t.Fatal("lifetimes payload not published under its key")
	}
	lf, err := decodeLife(g, good)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range lifeMetricCorruptions(sizeBounds(lf.Intervals)) {
		bad := lf
		c.mut(&bad)
		st.m[key] = encodeLife(bad)
		p2, err := NewPlan(g, pts, PlanConfig{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		out := p2.Run(context.Background())[0]
		if out.Err != nil {
			t.Fatalf("%s: %v", c.name, out.Err)
		}
		for _, kc := range p2.Stats() {
			if kc.Kind == KindLifetimes && (kc.Executed != 1 || kc.Loaded != 0) {
				t.Errorf("%s: lifetimes executed/loaded = %d/%d, want 1/0", c.name, kc.Executed, kc.Loaded)
			}
		}
		if !reflect.DeepEqual(out.Result.Metrics, cold.Metrics) || out.Result.PeriodLen != cold.PeriodLen {
			t.Errorf("%s: metrics %+v period %d, cold %+v period %d", c.name,
				out.Result.Metrics, out.Result.PeriodLen, cold.Metrics, cold.PeriodLen)
		}
	}
}

// TestPlanSecondRunLoadsEverything compiles the same grid twice against one
// store: the second run must execute only the repetitions node (its q comes
// from NewPlan, never from the store) and the assemble nodes, load
// everything else, emit no events for loaded nodes, and return results
// identical to the first run's.
func TestPlanSecondRunLoadsEverything(t *testing.T) {
	g := systems.SatelliteReceiver()
	st := newMapStore()
	pts := fullGrid()

	outs1, err := RunGridOutcomes(context.Background(), g, pts, PlanConfig{Store: st})
	if err != nil {
		t.Fatal(err)
	}

	var events []string
	var mu sync.Mutex
	p, err := NewPlan(g, pts, PlanConfig{Store: st, OnEvent: func(e Event) {
		if e.Enter {
			mu.Lock()
			events = append(events, e.Kind.String())
			mu.Unlock()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	outs2 := p.Run(context.Background())

	for _, kc := range p.Stats() {
		switch kc.Kind {
		case KindRepetitions, KindAssemble:
			if kc.Executed != kc.Nodes || kc.Loaded != 0 {
				t.Errorf("%v: executed/loaded = %d/%d, want %d/0", kc.Kind, kc.Executed, kc.Loaded, kc.Nodes)
			}
		case KindOrder, KindSchedule, KindLifetimes, KindAlloc,
			KindPartition, KindSegalloc:
			if kc.Loaded != kc.Nodes || kc.Executed != 0 {
				t.Errorf("%v: executed/loaded = %d/%d, want 0/%d", kc.Kind, kc.Executed, kc.Loaded, kc.Nodes)
			}
		default:
			panic("unknown kind in stats")
		}
	}
	for _, ev := range events {
		if ev != "assemble" && ev != "repetitions" {
			t.Errorf("second run emitted an event for a loaded %s node", ev)
		}
	}
	for i := range outs2 {
		if outs2[i].Err != nil || outs1[i].Err != nil {
			t.Fatalf("pt %d: errs %v / %v", i, outs1[i].Err, outs2[i].Err)
		}
		a, b := outs1[i].Result, outs2[i].Result
		if a.Schedule.String() != b.Schedule.String() ||
			!reflect.DeepEqual(a.Metrics, b.Metrics) ||
			!reflect.DeepEqual(a.Order, b.Order) ||
			a.Best.Total != b.Best.Total {
			t.Errorf("pt %d: store-assisted result differs from cold result", i)
		}
	}
}

// TestPlanGarbageStoreFallsBack pins the decode-failure path: a store
// serving undecodable bytes must be treated as a miss on every node, with
// results identical to a storeless run.
func TestPlanGarbageStoreFallsBack(t *testing.T) {
	g := systems.CDDAT()
	pts := fullGrid()[:6]
	cold, err := RunGridOutcomes(context.Background(), g, pts, PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	assisted, err := RunGridOutcomes(context.Background(), g, pts, PlanConfig{Store: garbageStore{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if assisted[i].Err != nil {
			t.Fatalf("pt %d: garbage store broke compilation: %v", i, assisted[i].Err)
		}
		if cold[i].Result.Schedule.String() != assisted[i].Result.Schedule.String() ||
			cold[i].Result.Best.Total != assisted[i].Result.Best.Total {
			t.Errorf("pt %d: garbage store changed the result", i)
		}
	}
}

// TestStoreRenameEditReusesWholePipeline is the headline incremental
// scenario: compile, rename one actor, recompile. Names appear in no store
// key and no artifact payload, so the second compile must load every stored
// stage and execute only the repetitions node (which takes NewPlan's q) and
// the per-point assembly — on this single-point run, 2 executed nodes
// versus the cold run's 7.
func TestStoreRenameEditReusesWholePipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := buildRand(t, rng, 60)
	st := newMapStore()
	pts := []Options{{}} // paper defaults: RPMC, SDPPO, ffdur+ffstart

	p1, err := NewPlan(g, pts, PlanConfig{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	outs1 := p1.Run(context.Background())
	if outs1[0].Err != nil {
		t.Fatal(outs1[0].Err)
	}
	coldExec := 0
	for _, kc := range p1.Stats() {
		coldExec += kc.Executed
	}

	g2 := renamed(g)
	p2, err := NewPlan(g2, pts, PlanConfig{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	outs2 := p2.Run(context.Background())
	if outs2[0].Err != nil {
		t.Fatal(outs2[0].Err)
	}
	warmExec, warmLoaded := 0, 0
	for _, kc := range p2.Stats() {
		warmExec += kc.Executed
		warmLoaded += kc.Loaded
		if kc.Executed > 0 && kc.Kind != KindRepetitions && kc.Kind != KindAssemble {
			t.Errorf("warm recompile executed %d %v nodes, want every stored kind loaded", kc.Executed, kc.Kind)
		}
	}
	if warmExec != 2 {
		t.Errorf("warm recompile executed %d nodes, want 2 (repetitions and assemble)", warmExec)
	}
	if warmLoaded != coldExec-2 {
		t.Errorf("warm recompile loaded %d nodes, want %d", warmLoaded, coldExec-2)
	}
	// Semantics unchanged up to names: identical schedule shape and totals.
	if outs1[0].Result.Best.Total != outs2[0].Result.Best.Total ||
		outs1[0].Result.Metrics.DPCost != outs2[0].Result.Metrics.DPCost {
		t.Error("rename edit changed allocation totals")
	}
}

// buildRand draws a consistent random graph without importing randsdf (this
// file is in package pass; randsdf has no dependency back, but keeping the
// internal test dependency-light mirrors plan_test).
func buildRand(t *testing.T, rng *rand.Rand, actors int) *sdf.Graph {
	t.Helper()
	reps := []int64{1, 2, 3, 4, 6}
	g := sdf.New("randstore")
	q := make([]int64, actors)
	for i := 0; i < actors; i++ {
		g.AddActor(strings.Repeat("a", 1) + string(rune('A'+i%26)) + string(rune('0'+i/26)))
		q[i] = reps[rng.Intn(len(reps))]
	}
	gcd := func(a, b int64) int64 {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	for i := 1; i < actors; i++ {
		j := rng.Intn(i)
		gg := gcd(q[j], q[i])
		g.AddEdge(sdf.ActorID(j), sdf.ActorID(i), q[i]/gg, q[j]/gg, 0)
	}
	return g
}

// keyLog is a Store that never hits and records every published key in
// order.
type keyLog struct {
	mu   sync.Mutex
	keys []string
}

func (l *keyLog) Get(string) ([]byte, bool) { return nil, false }

func (l *keyLog) Put(key string, _ []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.keys = append(l.keys, key)
}

// TestStoreKeyGolden pins the hex store keys of satrec across ordering
// strategy × looping × allocator × worker count. A single-point plan has one
// node per level, so it publishes in level order: order, schedule,
// lifetimes, alloc, then partition and segalloc when P >= 2. Any
// change to a key's bytes — an option projection, a graph projection, an
// artifact encoding — fails here, and must come with a StoreVersion bump
// and a regenerated golden (go test ./internal/pass -run
// TestStoreKeyGolden -update).
func TestStoreKeyGolden(t *testing.T) {
	g := systems.SatelliteReceiver()
	q, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	custom, err := g.TopologicalSort(q)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", StoreVersion)
	for _, strat := range []OrderStrategy{APGAN, RPMC, CustomOrder} {
		for _, la := range []LoopAlg{SDPPOLoops, FlatLoops} {
			for _, al := range []alloc.Strategy{alloc.FirstFitDuration, alloc.FirstFitStart} {
				for _, parts := range []int{0, 2} {
					opts := Options{Strategy: strat, Looping: la, Allocators: []alloc.Strategy{al}, Partitions: parts}
					if strat == CustomOrder {
						opts.Order = custom
					}
					log := &keyLog{}
					outs, err := RunGridOutcomes(context.Background(), g, []Options{opts}, PlanConfig{Store: log})
					if err != nil {
						t.Fatal(err)
					}
					if outs[0].Err != nil {
						t.Fatal(outs[0].Err)
					}
					fmt.Fprintf(&b, "%v/%v/%v/P%d\n", strat, la, al, parts)
					for _, k := range log.keys {
						fmt.Fprintf(&b, "  %s\n", k)
					}
				}
			}
		}
	}
	goldentest.Compare(t, filepath.Join("testdata", "store_keys.golden"), b.String())
}
