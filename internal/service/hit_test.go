package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sdfio"
	"repro/internal/systems"
)

// encoded is v as json.Encoder writes it: the bytes the envelopes must
// reproduce.
func encoded(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// htmlArtifact is CDDAT's artifact with C code, whose #include lines make
// the encoder's HTML escaping visible.
func htmlArtifact(t testing.TB) []byte {
	t.Helper()
	data, _, err := CompileArtifact(systems.CDDAT(), CompileOptions{EmitC: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`\u003c`)) {
		t.Fatal("artifact has no escaped '<': the test would not see escaping")
	}
	return data
}

func TestEnvelopesMatchEncoder(t *testing.T) {
	art := htmlArtifact(t)
	digest := Digest("graph g\n", CompileOptions{})
	for _, r := range []CompileResponse{
		{Digest: digest, Cached: true, Artifact: art},
		{Digest: digest, Artifact: art},
		{Digest: digest, Coalesced: true, Artifact: art},
		{Digest: digest, Verified: true, Artifact: art},
		{Digest: digest, Coalesced: true, Verified: true, Artifact: art},
	} {
		rec := httptest.NewRecorder()
		writeCompile(rec, &r)
		if want := encoded(t, &r); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("compile envelope %+v:\n got %.120s\nwant %.120s", r.Coalesced, rec.Body.Bytes(), want)
		}
		if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
			t.Errorf("Content-Length %q for a %d-byte body", got, rec.Body.Len())
		}
	}
	small := []byte(`{"graph":"g"}`)
	entryErr := &APIError{Status: http.StatusBadRequest, Reason: "bad_request", Message: `options: <"x"> & more`}
	for n := 1; n <= 5; n++ {
		resp := GridResponse{Results: make([]GridEntryResult, 0, n), PlannedNodes: 3 * n, NaiveNodes: 7 * n}
		for i := range n {
			res := GridEntryResult{Digest: Digest(fmt.Sprintf("graph g%d\n", i), CompileOptions{})}
			switch i % 4 {
			case 0:
				res.Cached, res.Artifact = true, art
			case 1:
				res.Artifact = small
			case 2:
				res.Error = entryErr
			case 3:
				res = GridEntryResult{Error: entryErr}
			}
			resp.Results = append(resp.Results, res)
		}
		if n == 5 {
			resp.Results[4] = GridEntryResult{}
		}
		rec := httptest.NewRecorder()
		writeGrid(rec, &resp)
		if want := encoded(t, &resp); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("grid envelope of %d entries:\n got %.200s\nwant %.200s", n, rec.Body.Bytes(), want)
		}
		if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
			t.Errorf("Content-Length %q for a %d-byte body", got, rec.Body.Len())
		}
	}
}

func TestWireForm(t *testing.T) {
	art := htmlArtifact(t)
	if !wireForm(art) {
		t.Error("ArtifactBytes output is not in wire form")
	}
	unescaped := bytes.ReplaceAll(art, []byte(`\u003c`), []byte("<"))
	for name, data := range map[string][]byte{
		"empty":     nil,
		"garbage":   []byte("not json"),
		"two":       []byte("1 2"),
		"indented":  []byte("{ \"a\": 1 }"),
		"trailing":  append(append([]byte(nil), art...), '\n'),
		"unescaped": unescaped,
	} {
		if wireForm(data) {
			t.Errorf("%s: accepted as wire form", name)
		}
	}
}

// FuzzWireForm: whenever wireForm accepts bytes, both response envelopes
// that copy them verbatim equal json.Encoder's output for the same
// response, byte for byte. That is what lets the cache hold peer bytes
// once they pass wireForm. flags selects the envelope's booleans and entry
// shapes; msg is an entry error's message.
func FuzzWireForm(f *testing.F) {
	f.Add(htmlArtifact(f), byte(0), "")
	for _, seed := range []string{
		`null`, `1e5`, `"<x>"`, `"\u003cx\u003e"`, `[1,{"a":[]}]`, "\"\u2028\"",
		`"\u2028"`, "{\"a\":\"\xff\"}", `{ "a": 1 }`, `1 2`, ``,
	} {
		f.Add([]byte(seed), byte(0x2d), `options: <"x"> & more`)
	}
	digest := Digest("graph g\n", CompileOptions{})
	f.Fuzz(func(t *testing.T, data []byte, flags byte, msg string) {
		if !wireForm(data) {
			return
		}
		c := CompileResponse{Digest: digest, Cached: flags&1 != 0, Coalesced: flags&2 != 0, Verified: flags&4 != 0, Artifact: data}
		if got, want := appendCompileResponse(nil, &c), encoded(t, &c); !bytes.Equal(got, want) {
			t.Fatalf("compile envelope:\n got %q\nwant %q", got, want)
		}
		entryErr := &APIError{Status: http.StatusBadRequest, Reason: "bad_request", Message: msg}
		g := GridResponse{PlannedNodes: int(flags), NaiveNodes: 2 * int(flags)}
		for i := range 4 {
			res := GridEntryResult{Artifact: data}
			if flags>>(4+i)&1 != 0 {
				res = GridEntryResult{Digest: digest, Cached: flags&1 != 0, Error: entryErr}
			}
			if i == 0 {
				res.Digest = digest
			}
			g.Results = append(g.Results, res)
		}
		if got, want := appendGridResponse(nil, &g), encoded(t, &g); !bytes.Equal(got, want) {
			t.Fatalf("grid envelope:\n got %q\nwant %q", got, want)
		}
	})
}

// TestWriteJSONEncodeFailure: a value that does not encode is answered
// with a 500 internal envelope, not a 200 with an empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, &CompileResponse{Digest: "d", Artifact: json.RawMessage("not json")})
	var envelope struct{ Error *APIError }
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || rec.Code != http.StatusInternalServerError ||
		envelope.Error == nil || envelope.Error.Reason != "internal" || envelope.Error.Status != http.StatusInternalServerError {
		t.Fatalf("status %d, body %q (%v)", rec.Code, rec.Body.String(), err)
	}
}

// TestPeerGarbageIsAFailedFetch: a peer that serves bytes which pass the
// integrity checksum but are not JSON never reaches a response. A compile
// whose owner is this node, cold here, fetches from the peer, refuses the
// bytes and compiles locally; an artifact fetch answers 404.
func TestPeerGarbageIsAFailedFetch(t *testing.T) {
	garbage := []byte("summed garbage")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { _, _ = io.WriteString(w, "{}") })
	mux.HandleFunc("GET /v1/peer/artifact/{digest}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(cluster.DigestHeader, r.PathValue("digest"))
		w.Header().Set(cluster.SumHeader, cluster.Sum(garbage))
		_, _ = w.Write(garbage)
	})
	peer := httptest.NewServer(mux)
	defer peer.Close()
	ts := newTestServer(t, Config{Cluster: &ClusterConfig{
		Self:          "127.0.0.1:1",
		Peers:         []string{strings.TrimPrefix(peer.URL, "http://")},
		ProbeInterval: time.Hour,
		RetryMin:      time.Millisecond,
		RetryMax:      2 * time.Millisecond,
	}})
	for deadline := time.Now().Add(10 * time.Second); ts.srv.cluster.mon.AliveCount() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the peer never read alive")
		}
	}
	var text, digest string
	for i := 0; ; i++ {
		g := systems.SatelliteReceiver()
		g.Name = fmt.Sprintf("own%d", i)
		text, digest = graphText(t, g), mustDigest(t, g)
		if ts.srv.cluster.ownerOf(digest) == ts.srv.cluster.cfg.Self {
			break
		}
	}
	g, err := sdfio.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := CompileArtifact(g, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.cl.Compile(CompileRequest{Graph: text}, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached || !bytes.Equal(resp.Artifact, want) {
		t.Fatalf("cached=%v, artifact equal to a local compile: %v", resp.Cached, bytes.Equal(resp.Artifact, want))
	}
	if got := peerOutcomeTotal(t, &clusterTestNode{srv: ts.srv, http: ts.http}, "error"); got != 1 {
		t.Errorf("peer errors %v, want 1 (the refused fetch)", got)
	}
	art, err := http.Get(ts.http.URL + "/v1/artifact/" + Digest("graph other\n", CompileOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	art.Body.Close()
	if art.StatusCode != http.StatusNotFound {
		t.Errorf("artifact fetch of peer garbage: status %d, want 404", art.StatusCode)
	}
}

// compileBodyErr decodes a 200 compile body and requires its artifact to
// be want and the body to be exactly what json.Encoder writes for it.
func compileBodyErr(body []byte, digest string, want []byte) (CompileResponse, error) {
	var r CompileResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("%v: %.200s", err, body)
	}
	if r.Digest != digest || !bytes.Equal(r.Artifact, want) {
		return r, fmt.Errorf("digest %s (want %s), artifact equal: %v", r.Digest, digest, bytes.Equal(r.Artifact, want))
	}
	var enc bytes.Buffer
	if err := json.NewEncoder(&enc).Encode(&r); err != nil || !bytes.Equal(body, enc.Bytes()) {
		return r, fmt.Errorf("body differs from json.Encoder's (%v):\n got %.200s\nwant %.200s", err, body, enc.Bytes())
	}
	return r, nil
}

func checkCompileBody(t testing.TB, body []byte, digest string, want []byte) CompileResponse {
	t.Helper()
	r, err := compileBodyErr(body, digest, want)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCompileMemoUnderEviction: one body sent from many goroutines while
// the artifact cache evicts. The first send is a hit on the full path
// (another spelling warmed the cache), the next ones memo hits; evictions
// send requests back through the full path and the pipeline. Every answer
// is a 200 with the right artifact, byte-identical to json.Encoder's body.
func TestCompileMemoUnderEviction(t *testing.T) {
	g := systems.SatelliteReceiver()
	text := graphText(t, g)
	want, _, err := CompileArtifact(g, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	digest := mustDigest(t, g)
	ts := newTestServer(t, Config{CacheBudget: int64(2 * len(want))})
	post := func(body []byte) []byte {
		resp, err := http.Post(ts.http.URL+"/v1/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return nil
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("status %d: %s (%v)", resp.StatusCode, data, err)
			return nil
		}
		return data
	}
	body, err := json.Marshal(CompileRequest{Graph: text})
	if err != nil {
		t.Fatal(err)
	}
	primer, err := json.Marshal(CompileRequest{Graph: "# another spelling\n" + text})
	if err != nil {
		t.Fatal(err)
	}
	key := bodyKey(memoCompile, body)
	checkCompileBody(t, post(primer), digest, want)
	if _, ok := ts.srv.memo.get(key); ok {
		t.Fatal("the body is memoized before it was sent")
	}
	if r := checkCompileBody(t, post(body), digest, want); !r.Cached {
		t.Fatal("the first send missed the cache")
	}
	if d, ok := ts.srv.memo.get(key); !ok || len(d) != 1 || d[0] != digest {
		t.Fatalf("memo holds %v, %v after the full-path hit", d, ok)
	}
	// Two fillers fill the budget; the probe refreshes the digest, so each
	// round puts both before it looks.
	evict := func(round int) {
		for i := 0; ; i += 2 {
			ts.srv.cache.put(fmt.Sprintf("filler-%d-%d", round, i), want)
			ts.srv.cache.put(fmt.Sprintf("filler-%d-%d", round, i+1), want)
			if _, ok := ts.srv.cache.get(digest); !ok {
				return
			}
		}
	}

	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 12 {
				if data := post(body); data != nil {
					if _, err := compileBodyErr(data, digest, want); err != nil {
						t.Error(err)
					}
				}
			}
			if w == 0 {
				evict(w)
			}
		}()
	}
	for round := 1; round <= 3; round++ {
		evict(round)
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	evict(4)
	if r := checkCompileBody(t, post(body), digest, want); r.Cached {
		t.Fatal("a memo hit whose artifact was evicted answered cached")
	}
	if r := checkCompileBody(t, post(body), digest, want); !r.Cached {
		t.Fatal("the recompiled artifact was not cached")
	}
}

// TestGridMemoHit: a repeated all-hit grid body is answered from the memo,
// byte-identical to the full path's answer, and counts one cache hit per
// entry; a body with an entry that does not normalize is never memoized.
func TestGridMemoHit(t *testing.T) {
	ts := newTestServer(t, Config{})
	text := graphText(t, systems.SatelliteReceiver())
	send := func(req GridRequest) []byte {
		resp := postJSON(t, ts.http.URL+"/v1/grid", req)
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s (%v)", resp.StatusCode, data, err)
		}
		return data
	}
	req := GridRequest{Graph: text, Entries: []CompileOptions{{}, {Strategy: "apgan"}, {}}}
	send(req) // compiles
	full := send(req)
	if _, ok := ts.srv.memo.get(bodyKey(memoGrid, mustJSON(t, req))); !ok {
		t.Fatal("an all-normalized grid body was not memoized")
	}
	hits := ts.metricValue(t, "sdfd_cache_hits_total")
	if memo := send(req); !bytes.Equal(memo, full) {
		t.Fatalf("memo answer differs from the full path's:\n got %.200s\nwant %.200s", memo, full)
	}
	var resp GridResponse
	if err := json.Unmarshal(full, &resp); err != nil || !bytes.Equal(full, encoded(t, &resp)) {
		t.Fatalf("full-path grid body is not json.Encoder's (%v)", err)
	}
	if got := ts.metricValue(t, "sdfd_cache_hits_total"); got != fmt.Sprint(atoiT(t, hits)+3) {
		t.Errorf("cache hits %s after a 3-entry memo hit, was %s", got, hits)
	}
	bad := GridRequest{Graph: text, Entries: []CompileOptions{{}, {Strategy: "nosuch"}}}
	send(bad)
	if _, ok := ts.srv.memo.get(bodyKey(memoGrid, mustJSON(t, bad))); ok {
		t.Error("a grid body with an invalid entry was memoized")
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func atoiT(t testing.TB, s string) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscan(s, &n); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBodyMemoBound(t *testing.T) {
	m := newBodyMemo()
	digests := []string{"a", "b", "c"}
	for i := range 3 * memoDigests {
		m.put(bodyKey(memoCompile, []byte(fmt.Sprint(i))), digests[:1+i%3])
		m.mu.Lock()
		held, n := m.held, 0
		for _, d := range m.entries {
			n += len(d)
		}
		m.mu.Unlock()
		if held != n || held > memoDigests {
			t.Fatalf("after %d puts: held %d, counted %d, bound %d", i+1, held, n, memoDigests)
		}
	}
	k := bodyKey(memoGrid, []byte("x"))
	m.put(k, make([]string, memoDigests+1))
	if _, ok := m.get(k); ok {
		t.Error("an entry larger than the whole memo was kept")
	}
}

// TestCompileHitAllocs: a repeated compile body whose artifact is cached
// does no graph or JSON work, so what the handler allocates is the request
// plumbing: 48 allocations (httptest's request and recorder included),
// where the same measurement read 506 while every hit still decoded,
// parsed twice and re-encoded. The bound is a fifth of the latter.
func TestCompileHitAllocs(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	h := s.Handler()
	body := mustJSON(t, CompileRequest{Graph: graphText(t, systems.SatelliteReceiver())})
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve()
	serve()
	allocs := testing.AllocsPerRun(50, serve)
	t.Logf("%.0f allocations per repeated-body hit", allocs)
	if allocs > 101 {
		t.Errorf("%.0f allocations per repeated-body hit, want at most 101", allocs)
	}
}

// parentFrontEnd is the request front end as it was before the memo: a
// json.Decoder streaming the capped body, Canonicalize, then a parse of the
// canonical text. FuzzCompileRequest holds the one-parse front end to it.
func parentFrontEnd(s *Server, body []byte) (string, *APIError) {
	var req CompileRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), s.cfg.MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return "", &APIError{Status: http.StatusRequestEntityTooLarge, Reason: "too_large",
				Message: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxRequestBytes)}
		}
		return "", &APIError{Status: http.StatusBadRequest, Reason: "bad_request",
			Message: fmt.Sprintf("decoding request: %v", err)}
	}
	canonical, err := sdfio.Canonicalize(req.Graph)
	if err != nil {
		return "", &APIError{Status: http.StatusBadRequest, Reason: "bad_request",
			Message: fmt.Sprintf("parsing graph: %v", err)}
	}
	if _, err := sdfio.Parse(strings.NewReader(canonical)); err != nil {
		return "", &APIError{Status: http.StatusInternalServerError, Reason: "bad_request",
			Message: fmt.Sprintf("re-parsing canonical graph: %v", err)}
	}
	norm, err := normalize(req.Options)
	if err != nil {
		return "", &APIError{Status: http.StatusBadRequest, Reason: "bad_request",
			Message: fmt.Sprintf("options: %v", err)}
	}
	return Digest(canonical, norm), nil
}

// FuzzCompileRequest drives the compile front end — body read under the
// cap, decode, one parse, canonical text, normalization, digest — with
// arbitrary bodies. It must not panic; it must accept exactly the bodies
// the earlier Canonicalize-and-reparse front end accepted, with the same
// digest and a canonical text that is the parsed graph's; and a refused
// body must carry the same 400 or 413 APIError.
func FuzzCompileRequest(f *testing.F) {
	s := New(Config{Workers: 1, MaxRequestBytes: 1 << 11})
	f.Cleanup(s.Close)
	for _, seed := range []string{
		`{"graph":"graph g\nedge A B 3 2 0\n"}`,
		`{"graph":"edge A B 2 3\nedge B C 1 1 4 2\n","options":{"strategy":"apgan","allocators":["bfdur","ffdur","bfdur"],"partitions":1}}`,
		`{"graph":"# c\nactor Z\nedge A Z 1 1\n"} trailing`,
		`{"graph":"edge A B 1 1","nosuch":1}`,
		`{"graph":"edge A B 0 1"}`,
		`{"graph":"edge A B 1 1","options":{"looping":"zigzag"}}`,
		`{"graph":"edge A B 1 1"}` + strings.Repeat(" ", 3000),
		`{"graph":"` + strings.Repeat("edge A B 1 1\\n", 200) + `"}`,
		`{not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body))
		raw, readErr := s.readBody(rec, r)
		g, canonical, m, apiErr := s.parseCompileRequest(raw, readErr)
		wantDigest, wantErr := parentFrontEnd(s, body)
		if apiErr != nil {
			if apiErr.Status != http.StatusBadRequest && apiErr.Status != http.StatusRequestEntityTooLarge {
				t.Fatalf("refused with status %d: %+v", apiErr.Status, apiErr)
			}
			if wantErr == nil || *wantErr != *apiErr {
				t.Fatalf("refused with %+v, the earlier front end answered %+v", apiErr, wantErr)
			}
			return
		}
		if wantErr != nil || m.digest != wantDigest {
			t.Fatalf("accepted with digest %s, the earlier front end answered %s, %+v", m.digest, wantDigest, wantErr)
		}
		if again, err := sdfio.CanonicalString(g); err != nil || again != canonical {
			t.Fatalf("canonical text is not the parsed graph's: %q vs %q (%v)", canonical, again, err)
		}
	})
}
