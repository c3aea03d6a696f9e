// Package nodestore is a disk-backed, versioned, size-bounded
// content-addressed store for pass-node artifacts: the persistent layer
// behind incremental recompilation (docs/PIPELINE.md, "Incremental
// recompilation").
//
// Keys are opaque content addresses computed by internal/pass (hex SHA-256
// over a versioned frame covering exactly the inputs each pass reads), so an
// entry is immutable by construction: two writers of one key always carry
// identical payload bytes, and a key whose inputs change is a different key.
// That immutability is what keeps the store's concurrency story simple —
// publishing is idempotent, duplicate publishes collapse onto one file, and
// there is no such thing as a stale entry to invalidate, only an unused one
// to evict.
//
// On disk each entry is a single file written via temp-file + atomic rename,
// so a crash mid-write never leaves a partial frame under a final name. Each
// frame carries a magic string, the key, the payload, and a SHA-256 checksum
// over both; Get verifies the checksum on every disk read and evicts (rather
// than serves) anything corrupted or truncated out-of-band. An LRU byte
// budget bounds the footprint; reopening a directory rebuilds the index
// (recency approximated by file modification time) and re-enforces the
// budget.
//
// Beside the frames the store keeps a bounded in-memory tier (Recall,
// Keep): the parsed form of payloads its caller read through Get, after
// the checksum verified them, or has just published with Put. A recall
// costs no I/O and no parse. A tier entry lives only as long as its frame
// is indexed: evicting the frame, or finding it corrupt, drops the entry
// too. The tier is charged by the sizes its caller declares, under the
// fixed cap tierCap, and evicts least recently used entries first. It is
// not persisted: a reopened store starts with an empty tier.
package nodestore

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// magic identifies a node-store frame. Bump the trailing digit whenever the
// frame layout changes incompatibly: old files then read as corrupt and are
// evicted instead of misdecoded.
const magic = "sdfnode1"

// tierCap bounds the in-memory tier, in the bytes Keep is charged. A
// parsed 150-actor graph (every stored node of one compile) is charged
// about 40 KiB, so the tier holds some hundred graph versions.
const tierCap = 4 << 20

// maxKeyLen bounds the key length accepted by Put and trusted during frame
// parsing; pass-node keys are 64-character hex digests, so the bound is
// generous while still rejecting absurd length fields in corrupted frames.
const maxKeyLen = 256

// Stats is a point-in-time snapshot of the store's counters and footprint.
type Stats struct {
	// Hits and Misses count Get outcomes, and Hits also counts Recall
	// hits (a Recall miss counts nothing: its caller goes on to Get); Puts
	// counts entries actually written (re-publishing an existing key only
	// refreshes recency).
	Hits, Misses, Puts int64
	// Evictions counts entries removed to satisfy the byte budget; Corrupt
	// counts frames dropped because they failed validation (bad magic,
	// truncation, checksum or key mismatch, or an unreadable file).
	Evictions, Corrupt int64
	// Entries and Bytes are the current index size and on-disk footprint
	// (frame bytes, not just payload bytes).
	Entries int
	Bytes   int64
	// Kept and KeptBytes are the in-memory tier's entry count and charge.
	Kept      int
	KeptBytes int64
}

// Store is a content-addressed artifact store rooted at one directory. All
// methods are safe for concurrent use; the zero value is not usable — build
// with Open.
type Store struct {
	dir    string
	budget int64

	mu    sync.Mutex
	lru   *list.List               // guarded by mu; front = most recently used
	index map[string]*list.Element // guarded by mu; key -> element holding *entry
	bytes int64                    // guarded by mu
	tier  *list.List               // guarded by mu; the kept entries, front = most recently used
	kept  int64                    // guarded by mu; the tier's charge

	hits, misses, puts, evictions, corrupt int64 // guarded by mu
}

// entry is the in-memory index record for one on-disk frame, and its
// tier entry when it has one. Its fields are guarded by the store's mu.
type entry struct {
	key  string
	size int64 // frame size on disk

	parsed any           // the kept value
	charge int64         // what parsed costs the tier
	tierEl *list.Element // the entry's element in the tier; nil when nothing is kept
}

// Open creates (or reopens) a store rooted at dir holding at most budget
// bytes of frames. An existing directory is rescanned: every plausible frame
// is indexed with recency approximated by file modification time, anything
// unreadable is deleted, and the budget is re-enforced immediately. budget
// <= 0 disables the store (every Get misses, every Put is dropped) without
// touching existing files.
func Open(dir string, budget int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("nodestore: %w", err)
	}
	s := &Store{
		dir:    dir,
		budget: budget,
		lru:    list.New(),
		index:  make(map[string]*list.Element),
		tier:   list.New(),
	}
	if budget <= 0 {
		return s, nil
	}
	// Open has not returned yet, so s is unreachable from any other
	// goroutine and rescan can fill the index without holding s.mu.
	//lint:ignore lockcheck store is not yet published to any other goroutine
	if err := s.rescan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// rescan rebuilds the index from the directory contents. Only the frame
// header (magic + key) is read per file — checksum validation is deferred to
// Get, which is where a corrupted payload would otherwise escape. Files that
// fail even header validation are removed on the spot.
func (s *Store) rescan() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("nodestore: %w", err)
	}
	type found struct {
		e     entry
		mtime int64
	}
	var frames []found
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		path := filepath.Join(s.dir, de.Name())
		info, err := de.Info()
		if err != nil {
			continue // raced with a concurrent removal
		}
		key, ok := readFrameKey(path)
		if !ok || fileName(key) != de.Name() {
			// Leftover temp file, foreign file, or a frame whose name no
			// longer matches its key: never servable, so reclaim it.
			_ = os.Remove(path)
			s.corrupt++
			continue
		}
		frames = append(frames, found{
			e:     entry{key: key, size: info.Size()},
			mtime: info.ModTime().UnixNano(),
		})
	}
	// Oldest first: pushing in ascending mtime order leaves the most
	// recently written frames at the LRU front.
	sort.Slice(frames, func(i, j int) bool {
		if frames[i].mtime != frames[j].mtime {
			return frames[i].mtime < frames[j].mtime
		}
		return frames[i].e.key < frames[j].e.key
	})
	for _, f := range frames {
		e := f.e
		s.index[e.key] = s.lru.PushFront(&entry{key: e.key, size: e.size})
		s.bytes += e.size
	}
	return nil
}

// Get returns the payload stored under key, refreshing its recency. The
// frame checksum is verified on every read; a frame that fails validation is
// evicted, with its tier entry, and reported as a miss, never served.
//
// The file is read and checked outside s.mu, so concurrent readers do not
// queue on each other's I/O. The index may change meanwhile: a failed read
// drops the entry as corrupt only if the index still holds the element the
// read started from. Otherwise the frame was evicted (or evicted and
// published again) mid-read, and the failure is a plain miss.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	el, ok := s.index[key]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	size := el.Value.(*entry).size
	s.mu.Unlock()

	payload, err := readFrame(filepath.Join(s.dir, fileName(key)), key, size)

	s.mu.Lock()
	defer s.mu.Unlock()
	current := s.index[key] == el
	if err != nil {
		if current {
			s.dropLocked(el)
			s.corrupt++
		}
		s.misses++
		return nil, false
	}
	if current {
		s.lru.MoveToFront(el)
	}
	s.hits++
	return payload, true
}

// Recall returns the value kept under key, refreshing the recency of the
// value and of its frame, and counts a hit. It misses when the tier holds
// nothing for key, and reads no file either way.
func (s *Store) Recall(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	if e.tierEl == nil {
		return nil, false
	}
	s.lru.MoveToFront(el)
	s.tier.MoveToFront(e.tierEl)
	s.hits++
	return e.parsed, true
}

// Keep puts v in the tier under key, charged size bytes: the parsed form of
// the payload the store holds under key, which the caller has just read
// through Get or published with Put. The tier keeps nothing for a key whose
// frame is not indexed, nor a value larger than the whole tier; a key
// already kept only has its recency refreshed. Keep evicts the least
// recently used values until the tier is within its cap.
func (s *Store) Keep(key string, v any, size int64) {
	if size < 0 || size > tierCap {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[key]
	if !ok {
		return
	}
	e := el.Value.(*entry)
	if e.tierEl != nil {
		s.tier.MoveToFront(e.tierEl)
		return
	}
	e.parsed, e.charge = v, size
	e.tierEl = s.tier.PushFront(e)
	s.kept += size
	for s.kept > tierCap {
		s.forgetLocked(s.tier.Back().Value.(*entry))
	}
}

// forgetLocked drops an entry's kept value, if it has one. Callers hold
// s.mu.
func (s *Store) forgetLocked(e *entry) {
	if e.tierEl == nil {
		return
	}
	s.tier.Remove(e.tierEl)
	s.kept -= e.charge
	e.parsed, e.charge, e.tierEl = nil, 0, nil
}

// Put publishes payload under key. Publishing is idempotent — an existing
// key only has its recency refreshed (bytes for one key are immutable by
// construction) — and atomic: the frame is written to a temp file and
// renamed into place, so no reader or rescanning reopener ever observes a
// partial frame. Frames larger than the whole budget are dropped rather
// than evicting everything else. Errors writing the frame are swallowed:
// the store is a cache, and a failed publish only costs a future recompute.
func (s *Store) Put(key string, payload []byte) {
	if key == "" || len(key) > maxKeyLen {
		return
	}
	size := frameSize(key, payload)
	if size > s.budget {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[key]; ok {
		s.lru.MoveToFront(el)
		return
	}
	if err := writeFrame(s.dir, fileName(key), key, payload); err != nil {
		return
	}
	s.index[key] = s.lru.PushFront(&entry{key: key, size: size})
	s.bytes += size
	s.puts++
	s.evictLocked()
}

// evictLocked removes least-recently-used frames until the byte budget
// holds. Callers hold s.mu.
func (s *Store) evictLocked() {
	for s.bytes > s.budget {
		back := s.lru.Back()
		if back == nil {
			return
		}
		s.dropLocked(back)
		s.evictions++
	}
}

// dropLocked removes one entry from the index, the tier and the disk.
func (s *Store) dropLocked(el *list.Element) {
	e := el.Value.(*entry)
	s.forgetLocked(e)
	s.lru.Remove(el)
	delete(s.index, e.key)
	s.bytes -= e.size
	_ = os.Remove(filepath.Join(s.dir, fileName(e.key)))
}

// Stats returns a snapshot of the store's counters and footprint.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Puts: s.puts,
		Evictions: s.evictions, Corrupt: s.corrupt,
		Entries: s.lru.Len(), Bytes: s.bytes,
		Kept: s.tier.Len(), KeptBytes: s.kept,
	}
}

// fileName maps a key onto its on-disk file name. Pass-node keys are hex
// digests and usable verbatim; anything else (foreign callers, tests) is
// flattened onto a hex digest so the name is always filesystem-safe.
func fileName(key string) string {
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f':
		default:
			sum := sha256.Sum256([]byte(key))
			return fmt.Sprintf("%x.node", sum)
		}
	}
	return key + ".node"
}

// Frame layout:
//
//	magic (8 bytes) | keyLen (u32 BE) | key | payloadLen (u32 BE) | payload |
//	sha256(key || payload) (32 bytes)
//
// The key inside the frame makes a renamed or cross-linked file detectable,
// and the trailing checksum makes any truncation or bit rot detectable: a
// truncated frame either fails a length check or fails the checksum.

func frameSize(key string, payload []byte) int64 {
	return int64(len(magic) + 4 + len(key) + 4 + len(payload) + sha256.Size)
}

// appendFrame appends the frame of (key, payload) to buf.
func appendFrame(buf []byte, key string, payload []byte) []byte {
	buf = append(buf, magic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	h := sha256.New()
	h.Write([]byte(key))
	h.Write(payload)
	return h.Sum(buf)
}

func writeFrame(dir, name, key string, payload []byte) error {
	buf := appendFrame(make([]byte, 0, frameSize(key, payload)), key, payload)

	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return nil
}

// readFrame reads and fully validates the frame at path, returning its
// payload. size is the frame size the index recorded; wantKey must match
// the embedded key.
func readFrame(path, wantKey string, size int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readFrameFrom(f, wantKey, size)
}

// readFrameFrom reads a frame of the indexed size from r into a buffer one
// byte larger. Reading stops once size bytes have arrived, so a file of
// exactly that size costs one read call, with no stat and no EOF read,
// while a short read is continued rather than mistaken for a truncated
// file. A file of any other length (longer, shorter, or replaced by
// something else) is corrupt.
func readFrameFrom(r io.Reader, wantKey string, size int64) ([]byte, error) {
	data := make([]byte, size+1)
	n, err := io.ReadAtLeast(r, data, int(size))
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	if int64(n) != size {
		return nil, fmt.Errorf("nodestore: frame file holds %d bytes, index says %d", n, size)
	}
	key, payload, err := parseFrame(data[:n])
	if err != nil {
		return nil, err
	}
	if key != wantKey {
		return nil, fmt.Errorf("nodestore: frame holds key %q, want %q", key, wantKey)
	}
	return payload, nil
}

// readFrameKey reads just enough of the frame at path to recover its key;
// used by rescan so reopening a large store stays cheap.
func readFrameKey(path string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	head := make([]byte, len(magic)+4+maxKeyLen)
	n, _ := f.Read(head)
	head = head[:n]
	if len(head) < len(magic)+4 || string(head[:len(magic)]) != magic {
		return "", false
	}
	keyLen := binary.BigEndian.Uint32(head[len(magic):])
	if keyLen == 0 || keyLen > maxKeyLen || len(head) < len(magic)+4+int(keyLen) {
		return "", false
	}
	return string(head[len(magic)+4 : len(magic)+4+int(keyLen)]), true
}

// parseFrame validates everything except the key match: magic, length
// fields, and the trailing checksum.
func parseFrame(data []byte) (key string, payload []byte, err error) {
	rest := data
	if len(rest) < len(magic) || string(rest[:len(magic)]) != magic {
		return "", nil, fmt.Errorf("nodestore: bad magic")
	}
	rest = rest[len(magic):]
	if len(rest) < 4 {
		return "", nil, fmt.Errorf("nodestore: truncated key length")
	}
	keyLen := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if keyLen == 0 || keyLen > maxKeyLen || uint32(len(rest)) < keyLen {
		return "", nil, fmt.Errorf("nodestore: bad key length %d", keyLen)
	}
	key = string(rest[:keyLen])
	rest = rest[keyLen:]
	if len(rest) < 4 {
		return "", nil, fmt.Errorf("nodestore: truncated payload length")
	}
	payloadLen := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(len(rest)) != uint64(payloadLen)+sha256.Size {
		return "", nil, fmt.Errorf("nodestore: frame length mismatch")
	}
	payload = rest[:payloadLen]
	h := sha256.New()
	h.Write([]byte(key))
	h.Write(payload)
	if !bytes.Equal(h.Sum(nil), rest[payloadLen:]) {
		return "", nil, fmt.Errorf("nodestore: checksum mismatch")
	}
	return key, payload, nil
}
