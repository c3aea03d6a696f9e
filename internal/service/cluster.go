package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/service/metrics"
)

// forwardedHeader marks a request as already routed by a peer: the receiving
// node must serve it locally, never re-proxy. It carries the forwarding
// node's identity for observability.
const forwardedHeader = "X-Sdfd-Forwarded"

// servedByHeader names the peer that actually produced a proxied or
// peer-fetched response.
const servedByHeader = "X-Sdfd-Served-By"

// realClock injects the wall clock into the cluster primitives. The service
// package is outside the bannedcall deterministic set (a server needs real
// time); internal/cluster is inside it and must receive time from here.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// ClusterConfig turns a Server into one member of a sharded sdfd cluster.
// All members must agree on the member list (ring construction sorts it, so
// order is free) and on RingVersion; cmd/sdfd builds this from -peers.
type ClusterConfig struct {
	// Self is this node's advertised identity (host:port) — how peers spell
	// it in their own -peers lists. Required.
	Self string
	// Peers are the cluster members. Self is implied and may be included or
	// omitted; the ring is built over the union.
	Peers []string
	// ProbeInterval is the steady-state healthz probe period. Default 2s.
	ProbeInterval time.Duration
	// RetryMin/RetryMax bound the capped exponential backoff used both for
	// re-probing dead peers and between retries of failed peer calls.
	// Defaults 50ms/2s.
	RetryMin, RetryMax time.Duration
	// PeerAttempts bounds attempts per peer operation (fetch, job
	// dispatch). Default 3.
	PeerAttempts int
	// FetchPeers is how many ranked peers a cache miss probes for the
	// artifact before recompiling. Default 2.
	FetchPeers int
	// PeerTimeout bounds one peer artifact-fetch or healthz round trip.
	// Default 5s. (Proxied compiles use the server's RequestTimeout — they
	// wait on real pipeline work.)
	PeerTimeout time.Duration
	// Seed feeds the backoff jitter generators. Default 1.
	Seed int64
	// HTTPClient is used for all peer calls. Default http.DefaultClient.
	HTTPClient *http.Client
	// Clock paces probes and retries; tests inject fakes. Default wall
	// clock.
	Clock cluster.Clock
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.RetryMin <= 0 {
		c.RetryMin = 50 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.PeerAttempts <= 0 {
		c.PeerAttempts = 3
	}
	if c.FetchPeers <= 0 {
		c.FetchPeers = 2
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	return c
}

// clusterNode is the server's view of its cluster: the ring that assigns
// digests to members, the health monitor that gates membership, and the
// peer clients. Routing policy: a digest's effective owner is the first
// member of the ring's ranked order that is alive (self is always "alive"),
// so a dead peer's keyspace rehashes onto the surviving fallbacks without
// any coordination — every healthy member computes the same answer.
type clusterNode struct {
	cfg   ClusterConfig
	ring  *cluster.Ring
	mon   *cluster.Monitor
	fetch *cluster.FetchClient
	clock cluster.Clock

	peerReqs *metrics.CounterVec
}

func newClusterNode(cfg ClusterConfig, reg *metrics.Registry) *clusterNode {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		panic("service: ClusterConfig.Self is required")
	}
	ring, err := cluster.NewRing(append([]string{cfg.Self}, cfg.Peers...))
	if err != nil {
		panic("service: " + err.Error()) // unreachable: Self guarantees one member
	}
	cn := &clusterNode{
		cfg:   cfg,
		ring:  ring,
		fetch: &cluster.FetchClient{HTTP: cfg.HTTPClient},
		clock: cfg.Clock,
	}
	var others []string
	for _, m := range ring.Members() {
		if m != cfg.Self {
			others = append(others, m)
		}
	}
	cn.mon = cluster.NewMonitor(cluster.MonitorConfig{
		Peers:      others,
		Clock:      cfg.Clock,
		Interval:   cfg.ProbeInterval,
		BackoffMin: cfg.RetryMin,
		BackoffMax: cfg.RetryMax,
		Seed:       cfg.Seed,
		Probe: func(ctx context.Context, peer string) error {
			pctx, cancel := context.WithTimeout(ctx, cfg.PeerTimeout)
			defer cancel()
			return cn.fetch.Healthz(pctx, peer)
		},
	})
	cn.peerReqs = reg.CounterVec("sdfd_peer_requests_total",
		"outbound peer calls (artifact fetch, proxied compile, job dispatch) by peer and outcome (ok, miss, error)",
		"peer", "outcome")
	return cn
}

// ownerOf returns the effective owner of digest: the highest-ranked ring
// member that is self or currently alive. With every peer dead it returns
// self — full degradation to single-node operation.
func (cn *clusterNode) ownerOf(digest string) string {
	for _, m := range cn.ring.Ranked(digest) {
		if m == cn.cfg.Self || cn.mon.IsAlive(m) {
			return m
		}
	}
	return cn.cfg.Self
}

// ownedFraction backs the sdfd_ring_owned_fraction gauge: the fraction of a
// deterministic probe keyspace this node effectively owns, alive-gated. In
// a healthy N-node cluster it hovers near 1/N; it rises when peers die (the
// survivors absorb the dead keyspace) — a direct degraded-mode signal.
func (cn *clusterNode) ownedFraction() float64 {
	const probes = 512
	owned := 0
	for i := 0; i < probes; i++ {
		if cn.ownerOf(fmt.Sprintf("probe-%d", i)) == cn.cfg.Self {
			owned++
		}
	}
	return float64(owned) / probes
}

// fetchArtifact probes up to FetchPeers ranked alive peers for a cached
// artifact before the caller recompiles. Transport errors retry with
// backoff against the same peer; a miss (404) moves on immediately — a miss
// is an answer. Bytes that pass the checksum but are not in wire form
// (wireForm) count as a failed fetch from that peer. Returns the artifact
// bytes and the serving peer.
func (cn *clusterNode) fetchArtifact(ctx context.Context, digest string) ([]byte, string, bool) {
	probed := 0
	for _, peer := range cn.ring.Ranked(digest) {
		if peer == cn.cfg.Self || !cn.mon.IsAlive(peer) {
			continue
		}
		if probed++; probed > cn.cfg.FetchPeers {
			break
		}
		bo := cluster.NewBackoff(cn.cfg.RetryMin, cn.cfg.RetryMax, cn.cfg.Seed)
		for attempt := 0; attempt < cn.cfg.PeerAttempts; attempt++ {
			pctx, cancel := context.WithTimeout(ctx, cn.cfg.PeerTimeout)
			data, err := cn.fetch.Artifact(pctx, peer, digest)
			cancel()
			if err == nil && !wireForm(data) {
				// The same peer would serve the same bytes again.
				cn.peerReqs.With(peer, "error").Inc()
				break
			}
			if err == nil {
				cn.peerReqs.With(peer, "ok").Inc()
				return data, peer, true
			}
			if errors.Is(err, cluster.ErrNotFound) {
				cn.peerReqs.With(peer, "miss").Inc()
				break
			}
			cn.peerReqs.With(peer, "error").Inc()
			if attempt+1 < cn.cfg.PeerAttempts {
				select {
				case <-ctx.Done():
					return nil, "", false
				case <-cn.clock.After(bo.Next()):
				}
			}
		}
	}
	return nil, "", false
}

// postCompile sends one already-canonicalized compile request to a peer
// with the forwarded marker set, returning the peer's decoded response or
// its structured error.
func (cn *clusterNode) postCompile(ctx context.Context, peer, canonical string, norm CompileOptions) (*CompileResponse, error) {
	payload, err := json.Marshal(CompileRequest{Graph: canonical, Options: norm})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		cluster.BaseURL(peer)+"/v1/compile", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, cn.cfg.Self)
	resp, err := cn.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, decodeError(resp.StatusCode, body)
	}
	var out CompileResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("sdfd: decoding peer compile response: %w", err)
	}
	return &out, nil
}

// compileRemote drives one job entry's remote dispatch: re-evaluate the
// effective owner each attempt (so a peer dying mid-job rehashes the entry,
// possibly back to self), post the compile, and back off between failures.
// ok=false means the caller must compile locally — either the entry
// rehashed home, every attempt failed (graceful degradation), or the peer
// answered an artifact not in wire form (wireForm).
func (cn *clusterNode) compileRemote(ctx context.Context, canonical string, norm CompileOptions, digest string) (data []byte, peer string, ok bool) {
	bo := cluster.NewBackoff(cn.cfg.RetryMin, cn.cfg.RetryMax, cn.cfg.Seed)
	for attempt := 0; attempt < cn.cfg.PeerAttempts; attempt++ {
		owner := cn.ownerOf(digest)
		if owner == cn.cfg.Self {
			return nil, "", false
		}
		resp, err := cn.postCompile(ctx, owner, canonical, norm)
		if err == nil && !wireForm(resp.Artifact) {
			cn.peerReqs.With(owner, "error").Inc()
			return nil, "", false
		}
		if err == nil {
			cn.peerReqs.With(owner, "ok").Inc()
			return resp.Artifact, owner, true
		}
		cn.peerReqs.With(owner, "error").Inc()
		// Definitive peer-side verdicts (bad options, infeasible point)
		// would recur identically on retry AND on local fallback — the
		// pipeline is deterministic — so recompute locally without retries
		// to produce the same classified error.
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Status < 500 &&
			apiErr.Status != http.StatusTooManyRequests && apiErr.Status != http.StatusRequestTimeout {
			return nil, "", false
		}
		if attempt+1 < cn.cfg.PeerAttempts {
			select {
			case <-ctx.Done():
				return nil, "", false
			case <-cn.clock.After(bo.Next()):
			}
		}
	}
	return nil, "", false
}

// proxyCompile relays a synchronous compile request to its owning peer,
// writing the peer's response through verbatim (the artifact envelope is
// content-addressed, so relaying bytes preserves the digest contract).
// Returns false — response unwritten — when the peer's answer is not
// definitive (transport failure, peer shedding or shutting down): the
// caller then degrades to local compilation.
func (cn *clusterNode) proxyCompile(w http.ResponseWriter, r *http.Request, owner, canonical string, norm CompileOptions, timeout time.Duration) bool {
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	payload, err := json.Marshal(CompileRequest{Graph: canonical, Options: norm})
	if err != nil {
		return false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		cluster.BaseURL(owner)+"/v1/compile", bytes.NewReader(payload))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, cn.cfg.Self)
	resp, err := cn.http().Do(req)
	if err != nil {
		cn.peerReqs.With(owner, "error").Inc()
		return false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		cn.peerReqs.With(owner, "error").Inc()
		return false
	}
	definitive := resp.StatusCode/100 == 2 ||
		(resp.StatusCode/100 == 4 &&
			resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusRequestTimeout)
	if !definitive {
		cn.peerReqs.With(owner, "error").Inc()
		return false
	}
	cn.peerReqs.With(owner, "ok").Inc()
	w.Header().Set(servedByHeader, owner)
	writeBody(w, resp.StatusCode, body)
	return true
}

func (cn *clusterNode) http() *http.Client {
	if cn.cfg.HTTPClient != nil {
		return cn.cfg.HTTPClient
	}
	return http.DefaultClient
}

// handlePeerArtifact serves GET /v1/peer/artifact/{digest}: the internal
// peer API. It answers strictly from the local cache — no recursion into
// peer fetch or recompilation, so a fetch storm cannot amplify — and stays
// available while draining (peers may still need this node's cache during
// its shutdown grace period). Integrity headers let the fetcher re-verify
// the bytes (cluster.FetchClient).
func (s *Server) handlePeerArtifact(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	data, ok := s.cache.get(digest)
	if !ok {
		s.writeError(w, &APIError{
			Status: http.StatusNotFound, Reason: "not_found",
			Message: fmt.Sprintf("no cached artifact for digest %s", digest),
		})
		return
	}
	w.Header().Set(cluster.DigestHeader, digest)
	w.Header().Set(cluster.SumHeader, cluster.Sum(data))
	writeBody(w, http.StatusOK, data)
}
