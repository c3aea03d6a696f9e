package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sdfio"
	"repro/internal/service/metrics"
	"repro/internal/systems"
)

// switchHandler lets an httptest frontend exist before its Server does:
// cluster nodes need every member's resolved address at construction time,
// so the listeners come up first and the handlers are wired in afterwards.
// Requests arriving in the gap answer 503, which is also what a booting
// daemon's peers would see.
type switchHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (sw *switchHandler) set(h http.Handler) {
	sw.mu.Lock()
	sw.h = h
	sw.mu.Unlock()
}

func (sw *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw.mu.Lock()
	h := sw.h
	sw.mu.Unlock()
	if h == nil {
		http.Error(w, "booting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// clusterTestNode is one member of an in-process test cluster.
type clusterTestNode struct {
	addr string // ring identity (host:port)
	srv  *Server
	http *httptest.Server
	cl   *Client
}

// newTestCluster boots n coupled in-process nodes and waits until every
// node's health monitor sees all its peers alive. The cluster config uses a
// long steady-state probe interval: once converged, liveness is effectively
// under test control via Monitor.SetAlive, so fault injection is
// deterministic instead of racing the prober.
func newTestCluster(t *testing.T, n int, mut func(i int, cfg *Config)) []*clusterTestNode {
	t.Helper()
	handlers := make([]*switchHandler, n)
	nodes := make([]*clusterTestNode, n)
	addrs := make([]string, n)
	for i := range handlers {
		handlers[i] = &switchHandler{}
		ts := httptest.NewServer(handlers[i])
		t.Cleanup(ts.Close)
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
		nodes[i] = &clusterTestNode{addr: addrs[i], http: ts, cl: &Client{BaseURL: ts.URL}}
	}
	for i := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		cfg := Config{Cluster: &ClusterConfig{
			Self:  addrs[i],
			Peers: peers,
			// While a peer reads dead, re-probes retry on a tight backoff so
			// convergence is fast; once alive, the next probe is an hour out
			// and the test owns the liveness state.
			ProbeInterval: time.Hour,
			RetryMin:      2 * time.Millisecond,
			RetryMax:      10 * time.Millisecond,
		}}
		if mut != nil {
			mut(i, &cfg)
		}
		srv := New(cfg)
		t.Cleanup(srv.Close)
		handlers[i].set(srv.Handler())
		nodes[i].srv = srv
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		converged := true
		for _, node := range nodes {
			if node.srv.cluster.mon.AliveCount() != n-1 {
				converged = false
			}
		}
		if converged {
			return nodes
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster never converged: not every node sees its peers alive")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peerOutcomeTotal sums sdfd_peer_requests_total across peers for one
// outcome label on one node.
func peerOutcomeTotal(t *testing.T, node *clusterTestNode, outcome string) float64 {
	t.Helper()
	resp, err := http.Get(node.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := fmt.Fprint(&buf, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "sdfd_peer_requests_total{") ||
			!strings.Contains(line, `outcome="`+outcome+`"`) {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err == nil {
			total += v
		}
	}
	return total
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestClusterDifferentialThreeNodes is the acceptance differential: the same
// compile served through any of three peers yields byte-identical artifacts,
// identical to the in-process pipeline, with real proxying and peer fetching
// happening underneath (every digest is posted to all three nodes, so at
// least two of the three posts per digest land on non-owners).
func TestClusterDifferentialThreeNodes(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	opts := []CompileOptions{{}, {Strategy: "apgan", Looping: "dppo"}}

	type artifactCase struct {
		digest string
		want   string
	}
	var cases []artifactCase
	for _, g := range exampleSystems() {
		text := graphText(t, g)
		parsed, err := sdfio.Parse(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range opts {
			want, _, err := CompileArtifact(parsed, o)
			if err != nil {
				t.Fatalf("%s: in-process compile: %v", g.Name, err)
			}
			digest := ""
			for ni, node := range nodes {
				resp, err := node.cl.Compile(CompileRequest{Graph: text, Options: o}, false)
				if err != nil {
					t.Fatalf("%s via node %d: %v", g.Name, ni, err)
				}
				if string(resp.Artifact) != string(want) {
					t.Errorf("%s via node %d: artifact bytes differ from in-process pipeline", g.Name, ni)
				}
				if digest == "" {
					digest = resp.Digest
				} else if resp.Digest != digest {
					t.Errorf("%s via node %d: digest %s, other nodes said %s", g.Name, ni, resp.Digest, digest)
				}
			}
			cases = append(cases, artifactCase{digest: digest, want: string(want)})
		}
	}

	// Routing actually crossed node boundaries: proxied compiles and peer
	// fetches both count as ok peer requests somewhere in the cluster.
	okTotal := 0.0
	for _, node := range nodes {
		okTotal += peerOutcomeTotal(t, node, "ok")
	}
	if okTotal == 0 {
		t.Error("no successful peer requests recorded across the cluster; routing never left the local node")
	}

	// Artifact fetch through every node: non-owners must peer-fetch, and the
	// fetched bytes must be the same sequence (content addressing admits one
	// answer). The served-by header marks the fetch path.
	peerFetches := 0
	for _, c := range cases {
		for ni, node := range nodes {
			resp, err := http.Get(node.http.URL + "/v1/artifact/" + c.digest)
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("artifact %s via node %d: status %d", c.digest, ni, resp.StatusCode)
			}
			if body != c.want {
				t.Errorf("artifact %s via node %d: bytes differ", c.digest, ni)
			}
			if resp.Header.Get(servedByHeader) != "" {
				peerFetches++
			}
		}
	}
	if peerFetches == 0 {
		t.Error("no artifact request was satisfied by a peer fetch")
	}
}

// TestClusterDegradesWhenOwnerUnreachable covers the two failure layers of
// synchronous routing: an owner that accepts no connections (proxy fails,
// the serving node compiles locally) and an owner marked dead (the ring
// rehashes ownership onto the survivor, no proxy attempted).
func TestClusterDegradesWhenOwnerUnreachable(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)

	// Find a graph whose digest is remote-owned from one node's view; with
	// two members, one side of any digest is a non-owner.
	text := graphText(t, systems.CDDAT())
	canonical, err := sdfio.Canonicalize(text)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := normalize(CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	digest := Digest(canonical, norm)
	serving := nodes[0]
	owner := nodes[1]
	if serving.srv.cluster.ownerOf(digest) == serving.addr {
		serving, owner = owner, serving
	}

	// Owner still "alive" but refusing connections: the proxy attempt fails
	// and the serving node degrades to compiling locally.
	owner.http.Close()
	resp, err := serving.cl.Compile(CompileRequest{Graph: text}, false)
	if err != nil {
		t.Fatalf("compile with unreachable owner: %v", err)
	}
	if resp.Digest != digest || resp.Cached {
		t.Errorf("local fallback: digest %s cached=%v, want %s cached=false", resp.Digest, resp.Cached, digest)
	}
	if got := peerOutcomeTotal(t, serving, "error"); got == 0 {
		t.Error("no error peer request recorded for the failed proxy attempt")
	}

	// Owner marked dead: ownership rehashes to the survivor and a fresh
	// digest compiles locally with no peer involved.
	serving.srv.cluster.mon.SetAlive(owner.addr, false)
	if got := serving.srv.cluster.ownerOf(digest); got != serving.addr {
		t.Fatalf("with owner dead, ownerOf = %s, want self %s", got, serving.addr)
	}
	resp2, err := serving.cl.Compile(CompileRequest{Graph: text, Options: CompileOptions{Strategy: "apgan"}}, false)
	if err != nil {
		t.Fatalf("compile with owner dead: %v", err)
	}
	if resp2.Cached {
		t.Error("fresh digest reported cached")
	}
}

// TestClusterGridRoutesEntriesToOwners posts a synchronous grid whose
// entries have different owners to one node of three. Like a job, the grid
// must send each remote-owned entry to its owner and still answer every
// entry with the in-process pipeline's bytes.
func TestClusterGridRoutesEntriesToOwners(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	submit := nodes[0]

	text := graphText(t, systems.SatelliteReceiver())
	canonical, err := sdfio.Canonicalize(text)
	if err != nil {
		t.Fatal(err)
	}
	var entries []CompileOptions
	for _, e := range gridEntries() {
		entries = append(entries, e, CompileOptions{Strategy: e.Strategy, Looping: e.Looping, Allocators: []string{"ffdur"}})
	}
	owners := map[string]bool{}
	for _, e := range entries {
		norm, err := normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		owners[submit.srv.cluster.ownerOf(Digest(canonical, norm))] = true
	}
	if len(owners) < 2 {
		t.Fatalf("degenerate ring: all %d entries have one owner (%v)", len(entries), owners)
	}

	resp, err := submit.cl.Grid(GridRequest{Graph: text, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := sdfio.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range resp.Results {
		if res.Error != nil {
			t.Errorf("entry %d failed: %v", i, res.Error)
			continue
		}
		want, _, err := CompileArtifact(parsed, entries[i])
		if err != nil {
			t.Fatalf("entry %d in-process compile: %v", i, err)
		}
		if string(res.Artifact) != string(want) {
			t.Errorf("entry %d: artifact bytes differ from in-process pipeline", i)
		}
		owner := submit.srv.cluster.ownerOf(res.Digest)
		for _, node := range nodes {
			if _, ok := node.srv.cache.get(res.Digest); node.addr == owner && !ok {
				t.Errorf("entry %d: owner %s did not compile it", i, owner)
			}
		}
	}
	if got := peerOutcomeTotal(t, submit, "ok"); got < 1 {
		t.Errorf("submitting node recorded %v ok peer dispatches, want >= 1", got)
	}
}

// TestClusterJobSurvivesPeerDeath is the acceptance fault test: a peer is
// killed in the middle of an async grid job it is serving entries for. The
// job must still complete, every entry exactly once, through rehash plus
// local fallback, with the degradation visible in metrics and in the owned
// keyspace fraction.
func TestClusterJobSurvivesPeerDeath(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	submit := nodes[0]

	text := graphText(t, systems.SatelliteReceiver())
	canonical, err := sdfio.Canonicalize(text)
	if err != nil {
		t.Fatal(err)
	}
	var entries []CompileOptions
	for _, strat := range []string{"rpmc", "apgan"} {
		for _, la := range []string{"sdppo", "dppo", "chain", "flat"} {
			entries = append(entries, CompileOptions{Strategy: strat, Looping: la})
			entries = append(entries, CompileOptions{Strategy: strat, Looping: la, Allocators: []string{"ffdur"}})
		}
	}

	// Pick the victim: the peer owning the most of this job's digests, so the
	// kill is guaranteed to land mid-dispatch.
	owned := map[string]int{}
	for _, e := range entries {
		norm, err := normalize(e)
		if err != nil {
			t.Fatal(err)
		}
		owned[submit.srv.cluster.ownerOf(Digest(canonical, norm))]++
	}
	var victim *clusterTestNode
	for _, node := range nodes[1:] {
		if victim == nil || owned[node.addr] > owned[victim.addr] {
			victim = node
		}
	}
	if owned[victim.addr] == 0 {
		t.Fatalf("degenerate ring: no digest of %d owned by any peer (%v)", len(entries), owned)
	}

	healthyFraction := submit.srv.cluster.ownedFraction()

	// The kill: the first entry the victim starts compiling severs every
	// client connection (failing in-flight dispatches) and marks the victim
	// dead on the survivors, exactly as their probes would shortly discover.
	var once sync.Once
	victim.srv.testHookCompileStart = func() {
		once.Do(func() {
			victim.http.CloseClientConnections()
			for _, node := range nodes {
				if node != victim {
					node.srv.cluster.mon.SetAlive(victim.addr, false)
				}
			}
		})
	}

	job, err := submit.cl.SubmitGridJob(GridRequest{Graph: text, Entries: entries})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if job.Total != len(entries) {
		t.Fatalf("job total %d, want %d", job.Total, len(entries))
	}
	fin, err := submit.cl.AwaitJob(job.ID, 120*time.Second)
	if err != nil {
		t.Fatalf("await: %v", err)
	}
	if fin.State != JobStateDone || fin.Completed != len(entries) || fin.Failed != 0 {
		t.Fatalf("job finished state=%s completed=%d failed=%d, want done/%d/0",
			fin.State, fin.Completed, fin.Failed, len(entries))
	}

	// Every entry exactly once, and every digest byte-identical to the
	// in-process pipeline, served from the submitting node.
	seen := map[int]bool{}
	parsed, err := sdfio.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range fin.Results {
		if seen[res.Index] {
			t.Fatalf("entry %d completed more than once", res.Index)
		}
		seen[res.Index] = true
		if res.Error != nil {
			t.Errorf("entry %d failed: %v", res.Index, res.Error)
			continue
		}
		want, _, err := CompileArtifact(parsed, entries[res.Index])
		if err != nil {
			t.Fatalf("entry %d in-process compile: %v", res.Index, err)
		}
		got, err := submit.cl.Artifact(res.Digest)
		if err != nil {
			t.Errorf("entry %d: artifact %s not served by submitting node: %v", res.Index, res.Digest, err)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("entry %d: artifact bytes differ from in-process pipeline", res.Index)
		}
	}
	if len(seen) != len(entries) {
		t.Errorf("%d of %d entries reported results", len(seen), len(entries))
	}

	// Degradation is observable: failed dispatches against the victim, and
	// the submitting node's effective keyspace grew when the victim died.
	if got := peerOutcomeTotal(t, submit, "error"); got == 0 {
		t.Error("no error peer requests recorded despite a peer dying mid-job")
	}
	if degraded := submit.srv.cluster.ownedFraction(); degraded <= healthyFraction {
		t.Errorf("owned fraction %v did not rise above healthy %v after peer death", degraded, healthyFraction)
	}
}

// TestClusterLongLineGraph posts a graph whose edge line omits its delay
// and is 65 534 bytes long, so its canonical text (delay spelled out) has a
// line past bufio.MaxScanTokenSize. The node that parses the request and
// the owner that parses the proxied canonical text must agree: every node
// answers the same 200 body.
func TestClusterLongLineGraph(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	line := "edge " + strings.Repeat("a", 65523) + " B 1 1"
	if len(line) != 65534 {
		t.Fatalf("edge line is %d bytes", len(line))
	}
	body := mustJSON(t, CompileRequest{Graph: "graph long\n" + line + "\n"})
	want := ""
	for ni, node := range nodes {
		resp, err := http.Post(node.http.URL+"/v1/compile", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		got := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d: status %d: %.200s", ni, resp.StatusCode, got)
		}
		var cr CompileResponse
		if err := json.Unmarshal([]byte(got), &cr); err != nil {
			t.Fatalf("node %d: %v", ni, err)
		}
		// The first answer compiled; later ones are hits, on the node
		// itself or through the owner.
		cr.Cached = false
		got = string(mustJSON(t, cr))
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("node %d answered another body than node 0", ni)
		}
	}
	if okTotal := peerOutcomeTotal(t, nodes[0], "ok") + peerOutcomeTotal(t, nodes[1], "ok") +
		peerOutcomeTotal(t, nodes[2], "ok"); okTotal == 0 {
		t.Error("no request crossed to the owner")
	}
}

// TestClusterGridEntryPeerFetch: a grid entry owned by a node whose cache
// is cold, while its peer holds the artifact, is served by peer fetch. The
// job names the peer as served_by, and the owner runs no plan and keeps
// the bytes.
func TestClusterGridEntryPeerFetch(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	owner, peer := nodes[0], nodes[1]
	var text, digest string
	for i := 0; ; i++ {
		g := systems.SatelliteReceiver()
		g.Name = fmt.Sprintf("own%d", i)
		text, digest = graphText(t, g), mustDigest(t, g)
		if owner.srv.cluster.ownerOf(digest) == owner.addr {
			break
		}
	}
	parsed, err := sdfio.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := CompileArtifact(parsed, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	peer.srv.cache.put(digest, want)

	job, err := owner.cl.SubmitGridJob(GridRequest{Graph: text, Entries: []CompileOptions{{}}})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := owner.cl.AwaitJob(job.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res := fin.Results[0]
	if res.Error != nil || res.Digest != digest || res.ServedBy != peer.addr {
		t.Fatalf("entry %+v served by %q, want digest %s served by %s", res.Error, res.ServedBy, digest, peer.addr)
	}
	ownerTS := &testServer{srv: owner.srv, http: owner.http}
	ownerTS.mustMetric(t, "sdfd_grid_runs_total", "0")
	ownerTS.mustMetric(t, "sdfd_pipeline_runs_total", "0")
	if got, ok := owner.srv.cache.get(digest); !ok || string(got) != string(want) {
		t.Error("the owner did not keep the fetched artifact")
	}
}

// TestClusterRoutedCompileRelayAndFollower: a compile on a non-owner
// relays the owner's response byte for byte, and a grid entry that waits
// on the compile's dispatch decodes the same answer into its artifact.
// One dispatch and one owner-side run serve both, and the routing node
// keeps the grid's artifact.
func TestClusterRoutedCompileRelayAndFollower(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	router, owner := nodes[0], nodes[1]
	var text, digest string
	for i := 0; ; i++ {
		g := systems.SatelliteReceiver()
		g.Name = fmt.Sprintf("routed%d", i)
		text, digest = graphText(t, g), mustDigest(t, g)
		if router.srv.cluster.ownerOf(digest) == owner.addr {
			break
		}
	}
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	owner.srv.testHookCompileStart = func() {
		started <- struct{}{}
		<-release
	}

	var (
		wg       sync.WaitGroup
		relayed  string
		servedBy string
		grid     *GridResponse
		errs     [2]error
		routerTS = &testServer{srv: router.srv, http: router.http}
		payload  = fmt.Sprintf(`{"graph":%q}`, text)
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		resp, err := http.Post(router.http.URL+"/v1/compile", "application/json", strings.NewReader(payload))
		if err != nil {
			errs[0] = err
			return
		}
		relayed, servedBy = readAll(t, resp), resp.Header.Get(servedByHeader)
	}()
	<-started // the owner compiles the router's dispatch
	go func() {
		defer wg.Done()
		grid, errs[1] = router.cl.Grid(GridRequest{Graph: text, Entries: []CompileOptions{{}}})
	}()
	for deadline := time.Now().Add(10 * time.Second); routerTS.metricValue(t, "sdfd_cache_misses_total") != "2"; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the grid entry never missed the cache")
		}
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("compile: %v, grid: %v", errs[0], errs[1])
	}

	// The owner's own answer to the same request is what the router relayed.
	resp, err := http.Post(owner.http.URL+"/v1/compile", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	ownerBody := readAll(t, resp)
	var fromOwner CompileResponse
	if err := json.Unmarshal([]byte(ownerBody), &fromOwner); err != nil {
		t.Fatal(err)
	}
	var got CompileResponse
	if err := json.Unmarshal([]byte(relayed), &got); err != nil {
		t.Fatal(err)
	}
	if servedBy != owner.addr || got.Digest != digest || got.Cached || string(got.Artifact) != string(fromOwner.Artifact) {
		t.Fatalf("relayed compile served by %q: %s", servedBy, relayed)
	}
	res := grid.Results[0]
	if res.Error != nil || res.Digest != digest || res.Cached || string(res.Artifact) != string(fromOwner.Artifact) {
		t.Fatalf("grid entry %+v, want the owner's artifact %s", res.Error, digest)
	}
	if n := peerOutcomeTotal(t, router, "ok"); n != 1 {
		t.Errorf("router made %v successful dispatches, want 1", n)
	}
	ownerTS := &testServer{srv: owner.srv, http: owner.http}
	ownerTS.mustMetric(t, "sdfd_pipeline_runs_total", "1")
	if kept, ok := router.srv.cache.get(digest); !ok || string(kept) != string(fromOwner.Artifact) {
		t.Error("the router did not keep the grid entry's artifact")
	}
}

// roundTripFunc answers peer calls in process, without a listener.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// allocBytes is the mean heap bytes one call of fn allocates over n calls.
func allocBytes(n int, fn func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestClusterFetchFirstTryBuildsNoBackoff pins that a peer fetch answered
// on the first try builds no retry backoff: its seeded math/rand source is
// larger than everything else fetchArtifact adds to the fetch itself.
func TestClusterFetchFirstTryBuildsNoBackoff(t *testing.T) {
	const self, peer, digest = "127.0.0.1:1", "127.0.0.1:2", "0123abcd"
	body := []byte(`{"digest":"0123abcd"}`)
	rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		h := http.Header{}
		h.Set(cluster.DigestHeader, digest)
		h.Set(cluster.SumHeader, cluster.Sum(body))
		return &http.Response{StatusCode: http.StatusOK, Header: h,
			Body: io.NopCloser(bytes.NewReader(body)), Request: r}, nil
	})
	cn := newClusterNode(ClusterConfig{Self: self, Peers: []string{peer},
		HTTPClient: &http.Client{Transport: rt}}, metrics.NewRegistry())
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { cn.mon.Run(ctx); close(done) }()
	for !cn.mon.IsAlive(peer) {
		time.Sleep(time.Millisecond)
	}
	stop()
	<-done

	fetch := func() {
		if _, from, ok := cn.fetchArtifact(context.Background(), digest); !ok || from != peer {
			t.Fatalf("fetchArtifact = %q, %v; want a hit from %s", from, ok, peer)
		}
	}
	direct := func() {
		pctx, cancel := context.WithTimeout(context.Background(), cn.cfg.PeerTimeout)
		defer cancel()
		if _, err := cn.fetch.Artifact(pctx, peer, digest); err != nil {
			t.Fatal(err)
		}
	}
	backoff := func() { cluster.NewBackoff(cn.cfg.RetryMin, cn.cfg.RetryMax, cn.cfg.Seed).Next() }
	fetch()
	const runs = 200
	extra := int64(allocBytes(runs, fetch)) - int64(allocBytes(runs, direct))
	if bo := int64(allocBytes(runs, backoff)); extra >= bo {
		t.Errorf("a first-try fetch allocates %d B beyond the peer call; a backoff is %d B", extra, bo)
	}
}
