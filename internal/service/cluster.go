package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/service/metrics"
)

// forwardedHeader marks a request as already routed by a peer: the receiving
// node must serve it locally, never route it again. It carries the forwarding
// node's identity for observability.
const forwardedHeader = "X-Sdfd-Forwarded"

// servedByHeader names the peer that actually produced a dispatched or
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
	// PeerAttempts bounds attempts per peer operation (fetch, compile
	// dispatch). Default 3.
	PeerAttempts int
	// FetchPeers is how many ranked peers a cache miss probes for the
	// artifact before recompiling. Default 2.
	FetchPeers int
	// PeerTimeout bounds one peer artifact-fetch or healthz round trip.
	// Default 5s. (Compile dispatches use the server's RequestTimeout — they
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
		"outbound peer calls (artifact fetch, compile dispatch to an owner) by peer and outcome (ok, miss, error)",
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
// backoff against the same peer (made on the first retry, so a peer that
// answers at once costs no backoff); a miss (404) moves on immediately — a
// miss is an answer. Bytes that pass the checksum but are not in wire form
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
		var bo *cluster.Backoff
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
				if bo == nil {
					bo = cluster.NewBackoff(cn.cfg.RetryMin, cn.cfg.RetryMax, cn.cfg.Seed)
				}
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
// with the forwarded marker set, returning the peer's 2xx body undecoded or
// its structured error.
func (cn *clusterNode) postCompile(ctx context.Context, peer, canonical string, norm CompileOptions) ([]byte, error) {
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
	return (&Client{HTTPClient: cn.cfg.HTTPClient}).do(req)
}

// decoded replaces a relayed owner answer by its decoding, and reports
// false when it does not decode or its artifact is not in wire form
// (wireForm): this node must not serve such bytes as the digest's.
func (res entryResult) decoded() (entryResult, bool) {
	var resp CompileResponse
	if json.Unmarshal(res.relay, &resp) != nil || !wireForm(resp.Artifact) {
		return res, false
	}
	res.Cached, res.coalesced, res.Artifact, res.relay = resp.Cached, resp.Coalesced, resp.Artifact, nil
	return res, true
}

// compileRemote dispatches one miss to its owner: re-evaluate the effective
// owner each attempt (so a peer dying mid-request rehashes the miss,
// possibly back to self), post the compile, and back off between failures.
// It returns the owner's answer, decoded unless relay is set. false means
// the caller must compile locally — either the miss rehashed home, every
// attempt failed (graceful degradation), the owner's answer was a
// definitive 4xx, or it did not decode.
func (cn *clusterNode) compileRemote(ctx context.Context, canonical string, norm CompileOptions, digest string, relay bool) (entryResult, bool) {
	var bo *cluster.Backoff // made on the first retry: most dispatches need none
	for attempt := 0; attempt < cn.cfg.PeerAttempts; attempt++ {
		owner := cn.ownerOf(digest)
		if owner == cn.cfg.Self {
			return entryResult{}, false
		}
		body, err := cn.postCompile(ctx, owner, canonical, norm)
		res, ok := entryResult{GridEntryResult: GridEntryResult{Digest: digest}, servedBy: owner, relay: body}, err == nil
		if ok && !relay {
			if res, ok = res.decoded(); !ok {
				cn.peerReqs.With(owner, "error").Inc()
				return entryResult{}, false
			}
		}
		if ok {
			cn.peerReqs.With(owner, "ok").Inc()
			return res, true
		}
		cn.peerReqs.With(owner, "error").Inc()
		// Definitive peer-side verdicts (bad options, infeasible point)
		// would recur identically on retry AND on local fallback — the
		// pipeline is deterministic — so recompute locally without retries
		// to produce the same classified error.
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Status < 500 &&
			apiErr.Status != http.StatusTooManyRequests && apiErr.Status != http.StatusRequestTimeout {
			return entryResult{}, false
		}
		if attempt+1 < cn.cfg.PeerAttempts {
			if bo == nil {
				bo = cluster.NewBackoff(cn.cfg.RetryMin, cn.cfg.RetryMax, cn.cfg.Seed)
			}
			select {
			case <-ctx.Done():
				return entryResult{}, false
			case <-cn.clock.After(bo.Next()):
			}
		}
	}
	return entryResult{}, false
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
