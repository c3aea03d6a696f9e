package service

import (
	"bytes"
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/nodestore"
	"repro/internal/pass"
	"repro/internal/randsdf"
	"repro/internal/sdf"
	"repro/internal/systems"
)

// TestNodeStoreRestartReuse is the durability pin for store-assisted
// compilation: artifacts compiled by one daemon process are byte-identical
// to the same requests served by a fresh process over the same store
// directory, and the fresh process loads pipeline stages from disk instead
// of executing them (its in-memory artifact cache starts cold, so any reuse
// is the node store's).
func TestNodeStoreRestartReuse(t *testing.T) {
	dir := t.TempDir()
	graph := graphText(t, systems.SatelliteReceiver())
	reqs := []CompileRequest{
		{Graph: graph},
		{Graph: graph, Options: CompileOptions{Strategy: "apgan", Looping: "flat", Allocators: []string{"bfdur"}}},
	}

	st1, err := nodestore.Open(dir, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{NodeStore: st1})
	h1 := httptest.NewServer(srv1.Handler())
	cl1 := &Client{BaseURL: h1.URL}
	first := make([][]byte, len(reqs))
	for i, req := range reqs {
		resp, err := cl1.Compile(req, false)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = []byte(resp.Artifact)
	}
	if st1.Stats().Puts == 0 {
		t.Fatal("first server published nothing to the node store")
	}
	h1.Close()
	srv1.Close()

	// "Restart": a new store handle over the same directory, a new server.
	st2, err := nodestore.Open(dir, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Stats().Entries == 0 {
		t.Fatal("reopened store found no frames on disk")
	}
	ts2 := newTestServer(t, Config{NodeStore: st2})
	for i, req := range reqs {
		resp, err := ts2.cl.Compile(req, false)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached {
			t.Fatalf("req %d: fresh server reported an artifact-cache hit", i)
		}
		if !bytes.Equal([]byte(resp.Artifact), first[i]) {
			t.Fatalf("req %d: artifact differs across a daemon restart", i)
		}
	}
	if st2.Stats().Hits == 0 {
		t.Fatal("restarted server never hit the node store")
	}
	if got := ts2.metricValue(t, `sdfd_nodestore_loads_total{kind="order"}`); got == "" || got == "0" {
		t.Errorf("sdfd_nodestore_loads_total{kind=order} = %q, want > 0", got)
	}
	if got := ts2.metricValue(t, "sdfd_nodestore_hits_total"); got == "" || got == "0" {
		t.Errorf("sdfd_nodestore_hits_total = %q, want > 0", got)
	}
}

// TestNodeStoreGridAndCompileShare checks the two endpoints share one
// store: a grid request warms every stage a later single compile needs.
func TestNodeStoreGridAndCompileShare(t *testing.T) {
	st, err := nodestore.Open(t.TempDir(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Disable the artifact cache so the compile below must reach the
	// pipeline — any reuse it sees comes from the node store.
	ts := newTestServer(t, Config{NodeStore: st, CacheBudget: -1})
	graph := graphText(t, systems.CDDAT())

	gridResp, err := ts.cl.Grid(GridRequest{Graph: graph, Entries: []CompileOptions{
		{}, {Strategy: "apgan"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range gridResp.Results {
		if r.Error != nil {
			t.Fatalf("grid entry %d: %v", i, r.Error)
		}
	}
	hitsBefore := st.Stats().Hits

	resp, err := ts.cl.Compile(CompileRequest{Graph: graph, Options: CompileOptions{Strategy: "apgan"}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("compile was served by the disabled artifact cache")
	}
	if st.Stats().Hits <= hitsBefore {
		t.Error("single compile did not reuse stages the grid request stored")
	}
	want := gridResp.Results[1].Artifact
	if !bytes.Equal([]byte(resp.Artifact), []byte(want)) {
		t.Fatal("store-assisted compile bytes differ from the grid's artifact for the same options")
	}
}

// renameAllocCeiling bounds the allocations of a rename that recalls every
// stored pass from the node store's tier: NewPlan, Run and ArtifactBytes of
// a 150-actor graph. It is the count the path makes, so a new allocation on
// it fails the test below until the ceiling is raised on purpose.
const renameAllocCeiling = 123

// TestRenameAllocCeiling recompiles a renamed 150-actor randsdf graph after
// a cold compile of the original has filled the store, checks that every
// stored pass was loaded, and holds the recompile's allocation count to
// renameAllocCeiling.
func TestRenameAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	st, err := nodestore.Open(t.TempDir(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := normalize(CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := coreOptions(norm)
	if err != nil {
		t.Fatal(err)
	}
	compile := func(g *sdf.Graph) *pass.Plan {
		p, err := pass.NewPlan(g, []pass.Options{opts}, pass.PlanConfig{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		out := p.Run(context.Background())[0]
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if _, err := ArtifactBytes(out.Result, norm); err != nil {
			t.Fatal(err)
		}
		return p
	}
	g := randsdf.Graph(rand.New(rand.NewSource(7)), randsdf.Config{Actors: 150})
	compile(g)
	renamed := sdf.New(g.Name)
	for _, a := range g.Actors() {
		name := a.Name
		if a.ID == 3 {
			name = "renamed"
		}
		renamed.AddActor(name)
	}
	for _, e := range g.Edges() {
		renamed.SetWords(renamed.AddEdge(e.Src, e.Dst, e.Prod, e.Cons, e.Delay), e.Words)
	}
	for _, kc := range compile(renamed).Stats() {
		if kc.Kind != pass.KindRepetitions && kc.Kind != pass.KindAssemble && kc.Loaded != kc.Nodes {
			t.Fatalf("%s: %d of %d nodes loaded", kc.Kind, kc.Loaded, kc.Nodes)
		}
	}
	n := testing.AllocsPerRun(50, func() { compile(renamed) })
	t.Logf("%.0f allocations per rename", n)
	if n > renameAllocCeiling {
		t.Errorf("a rename allocates %.0f times, want at most %d", n, renameAllocCeiling)
	}
}
