package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// memoDigests bounds the raw-body memo by the digests it holds across all
// its entries (a compile body holds one, a grid body one per entry), so
// its memory stays below memoDigests × (key + digest) whatever the bodies.
const memoDigests = 4096

// memoRoute separates the routes' memo keys: one body may be valid on one
// route and not on the other.
type memoRoute uint8

const (
	memoCompile memoRoute = iota
	memoGrid
)

type memoKey struct {
	route memoRoute
	sum   [sha256.Size]byte // SHA-256 of the raw request body
}

func bodyKey(route memoRoute, body []byte) memoKey {
	return memoKey{route: route, sum: sha256.Sum256(body)}
}

// bodyMemo maps a raw request body to the digests it derives, so a
// repeated body skips JSON decoding, graph parsing, canonicalization,
// option normalization and digesting. A digest is a pure function of the
// body bytes, so an entry can never name a wrong artifact: at worst its
// artifact has left the cache and the request takes the full path, which
// refills the entry. A full memo drops arbitrary entries to make room.
type bodyMemo struct {
	mu      sync.Mutex
	entries map[memoKey][]string // guarded by mu
	held    int                  // guarded by mu; digests across entries
}

func newBodyMemo() *bodyMemo {
	return &bodyMemo{entries: make(map[memoKey][]string)}
}

// get returns the digests memoized for k. The slice is shared; callers
// must not mutate it.
func (m *bodyMemo) get(k memoKey) ([]string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.entries[k]
	return d, ok
}

// put memoizes digests for k; the memo keeps the slice.
func (m *bodyMemo) put(k memoKey, digests []string) {
	if len(digests) > memoDigests {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[k]; ok {
		return
	}
	for old, d := range m.entries {
		if m.held+len(digests) <= memoDigests {
			break
		}
		delete(m.entries, old)
		m.held -= len(d)
	}
	m.entries[k] = digests
	m.held += len(digests)
}

// readBody reads the whole request body under the MaxRequestBytes cap.
// On a read error (a *http.MaxBytesError past the cap) body holds what
// was read before it; decodeBody replays both.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := bytes.MinRead
	if n := r.ContentLength; n > 0 && n <= s.cfg.MaxRequestBytes {
		size += int(n)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	return buf.Bytes(), err
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeBody decodes a request body read by readBody into v exactly as a
// json.Decoder streaming the request would: the first JSON value, unknown
// fields refused, and the read error met only if the value runs into it.
func (s *Server) decodeBody(body []byte, readErr error, v any) *APIError {
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return nil
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &APIError{
			Status: http.StatusRequestEntityTooLarge, Reason: "too_large",
			Message: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxRequestBytes),
		}
	}
	return &APIError{
		Status: http.StatusBadRequest, Reason: "bad_request",
		Message: fmt.Sprintf("decoding request: %v", err),
	}
}

// writeBody answers code with a body already in its final form, framed by
// Content-Length and written at once.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// appendCompileResponse appends r's body as json.Encoder writes it,
// trailing newline included, with the artifact bytes copied verbatim: the
// cache holds only bytes in wire form, on which the encoder's compaction
// and escaping change nothing. Digests are hex and need no escaping.
func appendCompileResponse(dst []byte, r *CompileResponse) []byte {
	dst = append(dst, `{"digest":"`...)
	dst = append(dst, r.Digest...)
	dst = append(dst, `","cached":`...)
	dst = strconv.AppendBool(dst, r.Cached)
	if r.Coalesced {
		dst = append(dst, `,"coalesced":true`...)
	}
	if r.Verified {
		dst = append(dst, `,"verified":true`...)
	}
	dst = append(dst, `,"artifact":`...)
	dst = append(dst, r.Artifact...)
	return append(dst, "}\n"...)
}

// writeCompile answers 200 with a compile response.
func writeCompile(w http.ResponseWriter, r *CompileResponse) {
	size := len(`{"digest":"","cached":false,"coalesced":true,"verified":true,"artifact":}`) + 1
	writeBody(w, http.StatusOK, appendCompileResponse(make([]byte, 0, size+len(r.Digest)+len(r.Artifact)), r))
}

// appendGridResponse appends r's body as json.Encoder writes it, trailing
// newline included, with the artifact bytes copied verbatim as in
// appendCompileResponse. r.Results is never nil: a grid has entries. An
// entry's error is small and goes through json.Marshal, which escapes as
// the encoder does.
func appendGridResponse(dst []byte, r *GridResponse) []byte {
	dst = append(dst, `{"results":[`...)
	for i := range r.Results {
		res := &r.Results[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		// sep opens the object before the first field present.
		sep := byte('{')
		if res.Digest != "" {
			dst = append(dst, sep)
			dst = append(dst, `"digest":"`...)
			dst = append(dst, res.Digest...)
			dst = append(dst, '"')
			sep = ','
		}
		if res.Cached {
			dst = append(dst, sep)
			dst = append(dst, `"cached":true`...)
			sep = ','
		}
		if len(res.Artifact) > 0 {
			dst = append(dst, sep)
			dst = append(dst, `"artifact":`...)
			dst = append(dst, res.Artifact...)
			sep = ','
		}
		if res.Error != nil {
			e, _ := json.Marshal(res.Error) // an APIError always encodes
			dst = append(dst, sep)
			dst = append(dst, `"error":`...)
			dst = append(dst, e...)
			sep = ','
		}
		if sep == '{' {
			dst = append(dst, '{')
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `],"planned_nodes":`...)
	dst = strconv.AppendInt(dst, int64(r.PlannedNodes), 10)
	dst = append(dst, `,"naive_nodes":`...)
	dst = strconv.AppendInt(dst, int64(r.NaiveNodes), 10)
	return append(dst, "}\n"...)
}

// writeGrid answers 200 with a grid response.
func writeGrid(w http.ResponseWriter, r *GridResponse) {
	size := 64
	for i := range r.Results {
		size += len(`{"digest":"","cached":true,"artifact":},`) + len(r.Results[i].Digest) + len(r.Results[i].Artifact)
	}
	writeBody(w, http.StatusOK, appendGridResponse(make([]byte, 0, size), r))
}

// wireForm reports whether data is one JSON value in the form json.Marshal
// writes it: compact and HTML-escaped. The response envelopes copy cached
// artifacts verbatim, which equals what json.Encoder writes only for
// bytes in this form. Locally encoded artifacts have it by construction
// (ArtifactBytes); bytes from a peer are checked once, before they enter
// the cache, and a peer whose bytes fail counts as a failed fetch.
func wireForm(data []byte) bool {
	var compact bytes.Buffer
	if json.Compact(&compact, data) != nil {
		return false
	}
	var escaped bytes.Buffer
	json.HTMLEscape(&escaped, compact.Bytes())
	return bytes.Equal(escaped.Bytes(), data)
}
