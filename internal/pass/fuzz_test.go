package pass

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/randsdf"
	"repro/internal/sdf"
)

// The decode helpers are the load path of one payload, bind∘parse, as the
// plan runs it on a store read or a tier recall.

func decodeOrder(g *sdf.Graph, data []byte) (Order, error) { return parseOrder(g, data) }

func decodeSched(g *sdf.Graph, data []byte) (LoopedSchedule, error) {
	ps, err := parseSched(g, data)
	if err != nil {
		return LoopedSchedule{}, err
	}
	return ps.bind(g), nil
}

func decodeLife(g *sdf.Graph, data []byte) (Lifetimes, error) {
	pl, err := parseLife(g, data)
	if err != nil {
		return Lifetimes{}, err
	}
	return pl.bind(g), nil
}

func decodeAlloc(lf Lifetimes, strat alloc.Strategy, data []byte) (Allocation, error) {
	pa, err := parseAlloc(lf, data)
	if err != nil {
		return Allocation{}, err
	}
	return pa.bind(lf, strat), nil
}

func decodePartition(g *sdf.Graph, rep Repetitions, ord Order, partitions int, data []byte) (Partition, error) {
	return parsePartition(g, rep, ord, partitions, data)
}

func decodeSegalloc(g *sdf.Graph, rep Repetitions, part Partition, data []byte) (SegmentedAllocation, error) {
	ps, err := parseSegalloc(g, rep, part, data)
	if err != nil {
		return SegmentedAllocation{}, err
	}
	return ps.bind(g), nil
}

// fuzzGraph is the seeded graph the decoder fuzz targets decode against:
// some delays (whole-period intervals) and some vector tokens, so real
// payloads carry every interval shape.
func fuzzGraph() *sdf.Graph {
	g := randsdf.Graph(rand.New(rand.NewSource(5)), randsdf.Config{Actors: 14, DelayProb: 0.25})
	for i := 0; i < g.NumEdges(); i += 3 {
		g.SetWords(sdf.EdgeID(i), int64(1+i%4))
	}
	return g
}

// fuzzPayloads returns the real schedule and lifetimes payloads of g under
// every loop-hierarchy algorithm, the fuzz targets' seed corpus.
func fuzzPayloads(tb testing.TB, g *sdf.Graph) (scheds, lifes [][]byte) {
	tb.Helper()
	rep, err := RunRepetitions(g)
	if err != nil {
		tb.Fatal(err)
	}
	ord, err := RunOrder(g, rep, RPMC, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for _, la := range []LoopAlg{SDPPOLoops, DPPOLoops, ChainPreciseLoops, FlatLoops} {
		ls, err := RunSchedule(g, rep, ord, la)
		if err != nil {
			tb.Fatal(err)
		}
		lf, err := RunLifetimes(rep, ls)
		if err != nil {
			tb.Fatal(err)
		}
		scheds = append(scheds, encodeSched(ls))
		lifes = append(lifes, encodeLife(lf))
	}
	return scheds, lifes
}

// allocatedBy reports the heap bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocSlack absorbs allocator size-class rounding and the fuzz engine's own
// bookkeeping; a decoder trusting a corrupt count overshoots it by orders of
// magnitude.
const allocSlack = 64 << 10

// lifeAllocBound is what decoding a lifetimes payload may allocate for g:
// one interval per edge with its name and at most 2n periods.
func lifeAllocBound(g *sdf.Graph) uint64 {
	perEdge := 16 + 96 + 64 + 2*g.NumActors()*16
	return uint64(2*g.NumEdges()*perEdge) + allocSlack
}

// schedAllocBound is what decoding a schedule payload may allocate for g:
// at most 4n+4 terms and one body slot each.
func schedAllocBound(g *sdf.Graph) uint64 {
	return uint64(2*(4*g.NumActors()+4)*(64+8)) + allocSlack
}

// FuzzDecodeLife feeds arbitrary bytes to the lifetimes decoder: it must
// reject them or return an artifact that re-encodes to exactly those
// bytes, never panic, and never allocate past the graph's bound.
func FuzzDecodeLife(f *testing.F) {
	g := fuzzGraph()
	_, lifes := fuzzPayloads(f, g)
	for _, p := range lifes {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{2, 0, 2, 2, 0})
	bound := lifeAllocBound(g)
	f.Fuzz(func(t *testing.T, data []byte) {
		var lf Lifetimes
		var err error
		if n := allocatedBy(func() { lf, err = decodeLife(g, data) }); n > bound {
			t.Fatalf("decodeLife allocated %d bytes, bound %d", n, bound)
		}
		if err != nil {
			return
		}
		if got := encodeLife(lf); !bytes.Equal(got, data) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", data, got)
		}
	})
}

// FuzzDecodeSched is FuzzDecodeLife for the schedule decoder.
func FuzzDecodeSched(f *testing.F) {
	g := fuzzGraph()
	scheds, _ := fuzzPayloads(f, g)
	for _, p := range scheds {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 2, 2, 2, 2, 2, 0})
	bound := schedAllocBound(g)
	f.Fuzz(func(t *testing.T, data []byte) {
		var ls LoopedSchedule
		var err error
		if n := allocatedBy(func() { ls, err = decodeSched(g, data) }); n > bound {
			t.Fatalf("decodeSched allocated %d bytes, bound %d", n, bound)
		}
		if err != nil {
			return
		}
		if got := encodeSched(ls); !bytes.Equal(got, data) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", data, got)
		}
	})
}

// FuzzDecodeAlloc is FuzzDecodeLife for the allocation decoder, decoding
// against the seeded graph's real lifetimes. Every accepted placement must
// also lie inside the stored image.
func FuzzDecodeAlloc(f *testing.F) {
	g := fuzzGraph()
	rep, err := RunRepetitions(g)
	if err != nil {
		f.Fatal(err)
	}
	ord, err := RunOrder(g, rep, RPMC, nil)
	if err != nil {
		f.Fatal(err)
	}
	ls, err := RunSchedule(g, rep, ord, SDPPOLoops)
	if err != nil {
		f.Fatal(err)
	}
	lf, err := RunLifetimes(rep, ls)
	if err != nil {
		f.Fatal(err)
	}
	for _, strat := range []alloc.Strategy{alloc.FirstFitDuration, alloc.FirstFitStart} {
		al, err := RunAlloc(lf, strat)
		if err != nil {
			f.Fatal(err)
		}
		data, err := encodeAlloc(lf, al)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{2, 2, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		al, err := decodeAlloc(lf, alloc.FirstFitStart, data)
		if err != nil {
			return
		}
		for _, p := range al.Alloc.Placements {
			if p.Offset < 0 || p.Offset+p.Interval.Size > al.Alloc.Total {
				t.Fatalf("accepted placement %s at [%d,%d) outside a %d-cell image",
					p.Interval.Name, p.Offset, p.Offset+p.Interval.Size, al.Alloc.Total)
			}
		}
		got, err := encodeAlloc(lf, al)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", data, got)
		}
	})
}

// TestDecodeAllocsIndependentOfTermCount: the schedule and lifetimes
// decoders take their terms, intervals and periods from slabs, so their
// allocation counts do not grow with the graph.
func TestDecodeAllocsIndependentOfTermCount(t *testing.T) {
	count := func(actors int) (sched, life float64) {
		g := randsdf.Graph(rand.New(rand.NewSource(int64(actors))), randsdf.Config{Actors: actors, DelayProb: 0.25})
		scheds, lifes := fuzzPayloads(t, g)
		sched = testing.AllocsPerRun(20, func() {
			if _, err := decodeSched(g, scheds[0]); err != nil {
				t.Fatal(err)
			}
		})
		life = testing.AllocsPerRun(20, func() {
			if _, err := decodeLife(g, lifes[0]); err != nil {
				t.Fatal(err)
			}
		})
		return sched, life
	}
	smallSched, smallLife := count(20)
	largeSched, largeLife := count(150)
	if largeSched != smallSched {
		t.Errorf("decodeSched allocates %v times at 20 actors, %v at 150", smallSched, largeSched)
	}
	if largeLife != smallLife {
		t.Errorf("decodeLife allocates %v times at 20 actors, %v at 150", smallLife, largeLife)
	}
	t.Logf("allocations per decode: schedule %v, lifetimes %v", largeSched, largeLife)
}

// orderAllocBound is what decoding an order payload may allocate for g: the
// actor slice and its seen set.
func orderAllocBound(g *sdf.Graph) uint64 {
	return uint64(2*g.NumActors()*(8+1)) + allocSlack
}

// partitionAllocBound is what decoding a partition payload for a node
// keyed to p workers may allocate for g: the assign and phase maps, at most
// n phases each listing at most min(n, p) workers (those up to the last one
// that holds an actor), one block per actor, the per-actor costs and the
// per-worker loads.
func partitionAllocBound(g *sdf.Graph, p int) uint64 {
	n := g.NumActors()
	w := min(n, p)
	return uint64(2*(2*n*8+n*(24+w*24)+2*n*16+n*8+w*8)) + allocSlack
}

// segallocAllocBound is what decoding a segalloc payload may allocate for g
// under a p-worker partition: p+1 segments and, per edge, its routing,
// offset, size and phase-axis interval with its name.
func segallocAllocBound(g *sdf.Graph, p int) uint64 {
	return uint64(2*((p+1)*24+g.NumEdges()*(8+8+8+8+96+64))) + allocSlack
}

// fuzzOrders returns g's repetitions and its RPMC and APGAN orders.
func fuzzOrders(tb testing.TB, g *sdf.Graph) (Repetitions, []Order) {
	tb.Helper()
	rep, err := RunRepetitions(g)
	if err != nil {
		tb.Fatal(err)
	}
	var ords []Order
	for _, s := range []OrderStrategy{RPMC, APGAN} {
		ord, err := RunOrder(g, rep, s, nil)
		if err != nil {
			tb.Fatal(err)
		}
		ords = append(ords, ord)
	}
	return rep, ords
}

// FuzzDecodeOrder is FuzzDecodeLife for the order decoder.
func FuzzDecodeOrder(f *testing.F) {
	g := fuzzGraph()
	_, ords := fuzzOrders(f, g)
	for _, ord := range ords {
		f.Add(encodeOrder(ord))
	}
	f.Add([]byte{})
	f.Add([]byte{28, 0, 0})
	bound := orderAllocBound(g)
	f.Fuzz(func(t *testing.T, data []byte) {
		var ord Order
		var err error
		if n := allocatedBy(func() { ord, err = decodeOrder(g, data) }); n > bound {
			t.Fatalf("decodeOrder allocated %d bytes, bound %d", n, bound)
		}
		if err != nil {
			return
		}
		if got := encodeOrder(ord); !bytes.Equal(got, data) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", data, got)
		}
	})
}

// FuzzDecodePartition is FuzzDecodeLife for the partition decoder, decoding
// against the seeded graph's RPMC order for nodes keyed to 2, 3 and 4
// workers. A payload is accepted only for the worker count it declares,
// and its allocation is bounded by the graph and that key's P, never by a
// larger worker count the payload declares or by a phase or actor index.
func FuzzDecodePartition(f *testing.F) {
	g := fuzzGraph()
	rep, ords := fuzzOrders(f, g)
	ord := ords[0]
	keys := []int{2, 3, 4}
	for _, p := range keys {
		part, err := RunPartition(g, rep, ord, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodePartition(part))
	}
	f.Add([]byte{})
	f.Add([]byte{4, 28, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range keys {
			var part Partition
			var err error
			if n, bound := allocatedBy(func() { part, err = decodePartition(g, rep, ord, p, data) }), partitionAllocBound(g, p); n > bound {
				t.Fatalf("decodePartition for P=%d allocated %d bytes, bound %d", p, n, bound)
			}
			if err != nil {
				continue
			}
			if part.Part.P != p {
				t.Fatalf("a node keyed to P=%d accepted a %d-worker partition", p, part.Part.P)
			}
			if got := encodePartition(part); !bytes.Equal(got, data) {
				t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", data, got)
			}
		}
	})
}

// TestDecodePartitionManyWorkers: a real P=3 partition payload rewritten to
// declare 4 or 65 536 workers is refused by the P=3 node it was stored for,
// so the plan recomputes it as it would any corrupt frame instead of
// handing executors that many workers. Under a key that does ask for that
// many workers it decodes to the same actor placement with idle workers
// past the busy ones, within the graph's allocation bound rather than one
// list per declared worker and phase.
func TestDecodePartitionManyWorkers(t *testing.T) {
	g := fuzzGraph()
	rep, ords := fuzzOrders(t, g)
	part, err := RunPartition(g, rep, ords[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	enc := encodePartition(part)
	if _, err := decodePartition(g, rep, ords[0], 3, enc); err != nil {
		t.Fatalf("the P=3 payload for a P=3 node: %v", err)
	}
	_, n := binary.Varint(enc)
	for _, workers := range []int{4, maxPartitions} {
		data := append(binary.AppendVarint(nil, int64(workers)), enc[n:]...)
		if _, err := decodePartition(g, rep, ords[0], 3, data); err == nil {
			t.Errorf("a P=3 node accepted the payload rewritten to %d workers", workers)
		}
		var got Partition
		if alloc := allocatedBy(func() { got, err = decodePartition(g, rep, ords[0], workers, data) }); alloc > partitionAllocBound(g, workers) {
			t.Fatalf("decodePartition allocated %d bytes for %d workers, bound %d", alloc, workers, partitionAllocBound(g, workers))
		}
		if err != nil {
			t.Fatal(err)
		}
		if got.Part.P != workers || !slices.Equal(got.Part.Assign, part.Part.Assign) ||
			len(got.Part.Phases[0].Workers) != len(part.Part.Phases[0].Workers) {
			t.Errorf("decoded P=%d with %d worker lists, want P=%d with %d", got.Part.P,
				len(got.Part.Phases[0].Workers), workers, len(part.Part.Phases[0].Workers))
		}
		if !bytes.Equal(encodePartition(got), data) {
			t.Errorf("the %d-worker partition re-encodes differently", workers)
		}
	}
}

// FuzzDecodeSegalloc is FuzzDecodeLife for the segmented-allocation
// decoder, decoding against the seeded graph's 3-worker partition. Every
// accepted buffer must also lie inside the stored image.
func FuzzDecodeSegalloc(f *testing.F) {
	g := fuzzGraph()
	rep, ords := fuzzOrders(f, g)
	part, err := RunPartition(g, rep, ords[0], 3)
	if err != nil {
		f.Fatal(err)
	}
	seg, err := RunSegAlloc(g, rep, part)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeSegalloc(seg))
	f.Add([]byte{})
	f.Add([]byte{0, 8, 0, 0, 0, 2, 0, 0, 4, 0, 0, 1, 0, 0, 0})
	bound := segallocAllocBound(g, part.Part.P)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got SegmentedAllocation
		var err error
		if n := allocatedBy(func() { got, err = decodeSegalloc(g, rep, part, data) }); n > bound {
			t.Fatalf("decodeSegalloc allocated %d bytes, bound %d", n, bound)
		}
		if err != nil {
			return
		}
		s := got.Seg
		for e := range s.Offsets {
			if s.Offsets[e] < 0 || s.Offsets[e]+s.Sizes[e] > s.Total {
				t.Fatalf("accepted edge %d buffer at [%d,%d) outside a %d-cell image",
					e, s.Offsets[e], s.Offsets[e]+s.Sizes[e], s.Total)
			}
		}
		if out := encodeSegalloc(got); !bytes.Equal(out, data) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", data, out)
		}
	})
}
