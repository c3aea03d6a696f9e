// Tests of the node store's in-memory tier as the plan executor uses it:
// parsed payloads recalled by key and bound to each plan's own graph.
package pass_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/nodestore"
	"repro/internal/pass"
	"repro/internal/randsdf"
	"repro/internal/sdf"
	"repro/internal/service"
)

// tierPoints are the grid the tier tests compile: the service defaults and
// a two-worker point, so every stored kind has a node.
var tierPoints = []pass.Options{{}, {Partitions: 2}}

// tierWire renders tierPoints the way a client sees them.
var tierWire = []service.CompileOptions{{}, {Partitions: 2}}

// storedKinds are the kinds the store holds.
var storedKinds = map[pass.Kind]bool{
	pass.KindOrder: true, pass.KindSchedule: true, pass.KindLifetimes: true,
	pass.KindAlloc: true, pass.KindPartition: true, pass.KindSegalloc: true,
}

// tierGraph is a 150-actor graph, the size of the documents the edit
// benchmark recompiles.
func tierGraph(t *testing.T) *graphSpec {
	t.Helper()
	return specOf(randsdf.Graph(rand.New(rand.NewSource(7)), randsdf.Config{Actors: 150}))
}

// renamedSpec is base with actor a renamed to name.
func renamedSpec(base *graphSpec, a int, name string) *sdf.Graph {
	s := base.clone()
	s.actors[a] = name
	return s.build()
}

// compileTier compiles g over tierPoints against st and renders each
// point's artifact; a nil st compiles without a store. It reports the
// plan's node counts.
func compileTier(g *sdf.Graph, st pass.Store) ([][]byte, []pass.KindCount, error) {
	p, err := pass.NewPlan(g, tierPoints, pass.PlanConfig{Store: st})
	if err != nil {
		return nil, nil, err
	}
	outs := p.Run(context.Background())
	var arts [][]byte
	for i, o := range outs {
		if o.Err != nil {
			return nil, nil, o.Err
		}
		data, err := service.ArtifactBytes(o.Result, tierWire[i])
		if err != nil {
			return nil, nil, err
		}
		arts = append(arts, data)
	}
	return arts, p.Stats(), nil
}

// checkArtifacts compares a compile's artifacts with a store-less compile
// of g, byte for byte.
func checkArtifacts(g *sdf.Graph, got [][]byte) error {
	want, _, err := compileTier(g, nil)
	if err != nil {
		return err
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("point %d: artifact differs from the store-less compile", i)
		}
	}
	return nil
}

// allLoaded reports the first stored kind a compile did not load in full.
func allLoaded(stats []pass.KindCount) error {
	for _, kc := range stats {
		if storedKinds[kc.Kind] && (kc.Loaded != kc.Nodes || kc.Executed != 0) {
			return fmt.Errorf("%s: %d of %d nodes loaded, %d executed", kc.Kind, kc.Loaded, kc.Nodes, kc.Executed)
		}
	}
	return nil
}

// TestStoreTierConcurrentRenames compiles eight distinct renames of one
// 150-actor graph at once against one store: each recalls every stored
// node from the tier, shared parses bound to its own graph, and renders
// the store-less compile's bytes.
func TestStoreTierConcurrentRenames(t *testing.T) {
	base := tierGraph(t)
	st, err := nodestore.Open(t.TempDir(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := compileTier(base.build(), st); err != nil {
		t.Fatal(err)
	}
	kept := st.Stats()
	if kept.Kept != kept.Entries || kept.Kept == 0 {
		t.Fatalf("after a cold compile the tier keeps %d of %d frames", kept.Kept, kept.Entries)
	}

	const renames = 8
	errs := make([]error, renames)
	var wg sync.WaitGroup
	for i := 0; i < renames; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := renamedSpec(base, i*17%len(base.actors), fmt.Sprintf("renamed%d", i))
			arts, stats, err := compileTier(g, st)
			if err == nil {
				err = allLoaded(stats)
			}
			if err == nil {
				err = checkArtifacts(g, arts)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("rename %d: %v", i, err)
		}
	}
	after := st.Stats()
	if recalled := after.Hits - kept.Hits; recalled != renames*int64(kept.Entries) {
		t.Errorf("the renames counted %d store hits, want %d (every stored node of every rename)", recalled, renames*kept.Entries)
	}
	if after.Misses != kept.Misses || after.Puts != kept.Puts {
		t.Errorf("the renames missed or published: before %+v, after %+v", kept, after)
	}
}

// TestStoreTierOutlivesCorruptFrames recalls every stored node of a rename
// after each frame file has been overwritten with garbage: the tier holds
// parses of payloads verified or published earlier and reads no file. A
// fresh Open of the directory finds the frames corrupt, and a compile
// against it recomputes every stored node.
func TestStoreTierOutlivesCorruptFrames(t *testing.T) {
	base := tierGraph(t)
	dir := t.TempDir()
	st, err := nodestore.Open(dir, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := compileTier(base.build(), st); err != nil {
		t.Fatal(err)
	}
	g := renamedSpec(base, 3, "first")
	if _, stats, err := compileTier(g, st); err != nil || allLoaded(stats) != nil {
		t.Fatalf("rename before the corruption: %v, %v", err, allLoaded(stats))
	}

	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.Name()), []byte("garbage, not a frame"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	g = renamedSpec(base, 5, "second")
	arts, stats, err := compileTier(g, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := allLoaded(stats); err != nil {
		t.Errorf("rename after the corruption: %v", err)
	}
	if err := checkArtifacts(g, arts); err != nil {
		t.Errorf("rename after the corruption: %v", err)
	}
	if c := st.Stats().Corrupt; c != 0 {
		t.Errorf("recalls read %d corrupt frames; the tier should read no file", c)
	}

	fresh, err := nodestore.Open(dir, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if s := fresh.Stats(); s.Corrupt != int64(len(files)) || s.Entries != 0 {
		t.Fatalf("reopened store: %+v; want %d corrupt frames and no entries", s, len(files))
	}
	arts, stats, err = compileTier(g, fresh)
	if err != nil {
		t.Fatal(err)
	}
	for _, kc := range stats {
		if storedKinds[kc.Kind] && (kc.Executed != kc.Nodes || kc.Loaded != 0) {
			t.Errorf("reopened store, %s: %d of %d nodes executed, %d loaded", kc.Kind, kc.Executed, kc.Nodes, kc.Loaded)
		}
	}
	if err := checkArtifacts(g, arts); err != nil {
		t.Errorf("reopened store: %v", err)
	}
}
