package nodestore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/iotest"
)

func hexKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return fmt.Sprintf("%x", sum)
}

func mustOpen(t *testing.T, dir string, budget int64) *Store {
	t.Helper()
	s, err := Open(dir, budget)
	if err != nil {
		t.Fatalf("Open(%q, %d): %v", dir, budget, err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 1<<20)
	key, payload := hexKey(1), []byte("artifact bytes")
	if _, ok := s.Get(key); ok {
		t.Fatal("Get before Put should miss")
	}
	s.Put(key, payload)
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after Put = %q, %v; want %q, true", got, ok, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 put, 1 entry", st)
	}
	if st.Bytes != frameSize(key, payload) {
		t.Fatalf("bytes = %d; want frame size %d", st.Bytes, frameSize(key, payload))
	}
}

func TestPutIsIdempotent(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 1<<20)
	key := hexKey(1)
	s.Put(key, []byte("bytes"))
	s.Put(key, []byte("bytes"))
	st := s.Stats()
	if st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats after duplicate Put = %+v; want 1 put, 1 entry", st)
	}
}

// TestCorruptedFrameEvictedNotServed flips one payload byte on disk and
// checks the entry is detected by the checksum, reported as a miss, and
// removed — corruption must never be served and must not wedge the slot.
func TestCorruptedFrameEvictedNotServed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1<<20)
	key := hexKey(1)
	s.Put(key, []byte("precious artifact"))

	path := filepath.Join(dir, fileName(key))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-sha256.Size-2] ^= 0x40 // flip a payload bit
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(key); ok {
		t.Fatal("corrupted frame was served")
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after corruption = %+v; want 1 corrupt, 0 entries, 0 bytes", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupted frame still on disk (stat err %v)", err)
	}
	// The slot recovers: a fresh Put serves again.
	s.Put(key, []byte("precious artifact"))
	if _, ok := s.Get(key); !ok {
		t.Fatal("re-published entry should be served")
	}
}

// TestTruncatedFrameEvictedNotServed covers truncation at several cut
// points: inside the checksum, inside the payload, and inside the header.
func TestTruncatedFrameEvictedNotServed(t *testing.T) {
	for _, cut := range []int{1, 10, 40} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, 1<<20)
			key := hexKey(1)
			s.Put(key, []byte("payload payload payload"))
			path := filepath.Join(dir, fileName(key))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(key); ok {
				t.Fatal("truncated frame was served")
			}
			if st := s.Stats(); st.Corrupt != 1 || st.Entries != 0 {
				t.Fatalf("stats = %+v; want 1 corrupt, 0 entries", st)
			}
		})
	}
}

// TestWrongKeyFrameRejected writes a valid frame under the wrong file name
// (as if files were shuffled on disk) and checks the key embedded in the
// frame protects the lookup.
func TestWrongKeyFrameRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1<<20)
	k1, k2 := hexKey(1), hexKey(2)
	s.Put(k1, []byte("one"))
	s.Put(k2, []byte("two"))
	// Overwrite k2's file with k1's frame.
	data, err := os.ReadFile(filepath.Join(dir, fileName(k1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fileName(k2)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(k2); ok {
		t.Fatalf("cross-linked frame served as %q", got)
	}
}

// TestReopenReusesStore closes nothing (the store has no open handles) and
// simply reopens the directory: entries published by the first instance must
// be served by the second, simulating a daemon restart.
func TestReopenReusesStore(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, dir, 1<<20)
	var keys []string
	for i := 0; i < 5; i++ {
		k := hexKey(i)
		keys = append(keys, k)
		s1.Put(k, []byte(fmt.Sprintf("artifact %d", i)))
	}

	s2 := mustOpen(t, dir, 1<<20)
	if st := s2.Stats(); st.Entries != 5 {
		t.Fatalf("reopened store has %d entries; want 5", st.Entries)
	}
	for i, k := range keys {
		got, ok := s2.Get(k)
		if !ok || string(got) != fmt.Sprintf("artifact %d", i) {
			t.Fatalf("reopened Get(%d) = %q, %v", i, got, ok)
		}
	}
}

// TestReopenDropsGarbage seeds the directory with a leftover temp file and a
// foreign file; reopening must discard both without touching valid frames.
func TestReopenDropsGarbage(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, dir, 1<<20)
	s1.Put(hexKey(1), []byte("good"))
	if err := os.WriteFile(filepath.Join(dir, ".tmp-12345"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a frame"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, 1<<20)
	if st := s2.Stats(); st.Entries != 1 {
		t.Fatalf("reopened store has %d entries; want 1", st.Entries)
	}
	if _, ok := s2.Get(hexKey(1)); !ok {
		t.Fatal("valid frame lost during garbage collection")
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("directory holds %d files after reopen; want 1", len(files))
	}
}

// TestEvictionRespectsBudget fills the store past its budget and checks LRU
// entries (not recently-touched ones) are removed, on disk as well as in the
// index.
func TestEvictionRespectsBudget(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100)
	one := frameSize(hexKey(0), payload)
	s := mustOpen(t, dir, 3*one)

	for i := 0; i < 3; i++ {
		s.Put(hexKey(i), payload)
	}
	// Touch key 0 so key 1 is the LRU victim.
	if _, ok := s.Get(hexKey(0)); !ok {
		t.Fatal("key 0 should be resident")
	}
	s.Put(hexKey(3), payload)

	if _, ok := s.Get(hexKey(1)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := s.Get(hexKey(i)); !ok {
			t.Fatalf("key %d evicted; want resident", i)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Bytes > 3*one {
		t.Fatalf("stats = %+v; want 1 eviction within budget %d", st, 3*one)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("directory holds %d files; want 3", len(files))
	}
}

// TestReopenEnforcesBudget reopens a full store under a smaller budget and
// checks the footprint is trimmed immediately.
func TestReopenEnforcesBudget(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("y"), 200)
	one := frameSize(hexKey(0), payload)
	s1 := mustOpen(t, dir, 10*one)
	for i := 0; i < 10; i++ {
		s1.Put(hexKey(i), payload)
	}

	s2 := mustOpen(t, dir, 4*one)
	st := s2.Stats()
	if st.Bytes > 4*one || st.Entries != 4 {
		t.Fatalf("reopened stats = %+v; want <= %d bytes in 4 entries", st, 4*one)
	}
}

// TestOversizedPayloadDropped checks a frame larger than the whole budget is
// never written (it would only evict everything and then itself).
func TestOversizedPayloadDropped(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 64)
	s.Put(hexKey(1), bytes.Repeat([]byte("z"), 1024))
	if st := s.Stats(); st.Entries != 0 || st.Puts != 0 {
		t.Fatalf("oversized payload was stored: %+v", st)
	}
}

// TestDisabledStore checks budget <= 0 turns every operation into a no-op.
func TestDisabledStore(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	s.Put(hexKey(1), []byte("bytes"))
	if _, ok := s.Get(hexKey(1)); ok {
		t.Fatal("disabled store served an entry")
	}
}

// TestConcurrentWritersRespectBudget hammers one store from many goroutines
// — concurrent publishers, duplicate publishers, and readers — and checks
// the byte budget holds at every observation point and afterwards, with the
// index and disk in agreement. Run under -race this also pins the locking.
func TestConcurrentWritersRespectBudget(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("w"), 64)
	one := frameSize(hexKey(0), payload)
	budget := 8 * one
	s := mustOpen(t, dir, budget)

	const writers = 8
	const perWriter = 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Overlapping key ranges: plenty of duplicate publishes.
				s.Put(hexKey((w*perWriter+i)%40), payload)
				s.Get(hexKey(i % 40))
				if st := s.Stats(); st.Bytes > budget {
					t.Errorf("budget exceeded mid-run: %d > %d", st.Bytes, budget)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if st.Bytes > budget {
		t.Fatalf("final bytes %d exceed budget %d", st.Bytes, budget)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != st.Entries {
		t.Fatalf("disk holds %d files, index holds %d entries", len(files), st.Entries)
	}
	var disk int64
	for _, f := range files {
		info, err := f.Info()
		if err != nil {
			t.Fatal(err)
		}
		disk += info.Size()
	}
	if disk != st.Bytes {
		t.Fatalf("disk footprint %d != accounted bytes %d", disk, st.Bytes)
	}
}

// TestUnsafeKeyFlattened checks non-hex keys still round-trip (flattened
// onto a digest file name) so the store never writes an unsafe path.
func TestUnsafeKeyFlattened(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1<<20)
	key := "weird/../key with spaces"
	s.Put(key, []byte("v"))
	got, ok := s.Get(key)
	if !ok || string(got) != "v" {
		t.Fatalf("Get = %q, %v; want v, true", got, ok)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() == fileName("safe") {
		t.Fatalf("unexpected directory contents: %v", files)
	}
	// And it survives a reopen via the embedded key.
	s2 := mustOpen(t, dir, 1<<20)
	if got, ok := s2.Get(key); !ok || string(got) != "v" {
		t.Fatalf("reopened Get = %q, %v; want v, true", got, ok)
	}
}

// TestLengthenedFrameEvictedNotServed appends bytes to a valid frame: the
// read is sized from the index, so a longer file is corrupt even though its
// leading bytes still parse.
func TestLengthenedFrameEvictedNotServed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1<<20)
	key := hexKey(1)
	s.Put(key, []byte("payload"))
	path := filepath.Join(dir, fileName(key))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, ok := s.Get(key); ok {
		t.Fatal("lengthened frame was served")
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v; want 1 corrupt, 0 entries", st)
	}
}

// TestShortReadsNotCorrupt feeds frames through readers that return fewer
// bytes than asked for, as a network or FUSE file system may: a whole frame
// is still read and served, and a truncated one is still rejected. A
// lengthened frame is rejected when the first read returns more than the
// indexed size, as it does on a local file.
func TestShortReadsNotCorrupt(t *testing.T) {
	key, payload := hexKey(1), []byte("payload bytes")
	frame := appendFrame(nil, key, payload)
	size := int64(len(frame))
	readers := map[string]func([]byte) io.Reader{
		"full":     func(b []byte) io.Reader { return bytes.NewReader(b) },
		"one byte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"half":     func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		"data+EOF": func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
	}
	for name, wrap := range readers {
		got, err := readFrameFrom(wrap(frame), key, size)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("%s: whole frame: got %q, %v; want %q", name, got, err, payload)
		}
		if _, err := readFrameFrom(wrap(frame[:size-1]), key, size); err == nil {
			t.Errorf("%s: truncated frame accepted", name)
		}
	}
	if _, err := readFrameFrom(bytes.NewReader(append(frame[:size:size], 0)), key, size); err == nil {
		t.Error("lengthened frame accepted")
	}
}

// TestConcurrentGetPutEvictNeverCorrupt runs readers against writers under a
// budget of a few frames, so frames are evicted (and published again) while
// Gets read them outside the lock. Every hit must carry its key's payload,
// and a frame evicted mid-read must count as a plain miss, never as
// corrupt.
func TestConcurrentGetPutEvictNeverCorrupt(t *testing.T) {
	const keys = 24
	payloadOf := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 40+i) }
	s := mustOpen(t, t.TempDir(), 4*frameSize(hexKey(0), payloadOf(keys)))

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := (w*7 + i) % keys
				if w%2 == 0 {
					s.Put(hexKey(k), payloadOf(k))
					continue
				}
				if got, ok := s.Get(hexKey(k)); ok && !bytes.Equal(got, payloadOf(k)) {
					t.Errorf("key %d served %q", k, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Corrupt != 0 {
		t.Fatalf("stats = %+v; want no corrupt frames", st)
	}
	if st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("stats = %+v; the run must both evict and hit", st)
	}
}

// FuzzParseFrame feeds arbitrary bytes to the frame parser: it must reject
// them or return a key and payload that frame back to exactly those bytes.
func FuzzParseFrame(f *testing.F) {
	f.Add(appendFrame(nil, hexKey(1), []byte("payload")))
	f.Add(appendFrame(nil, "k", nil))
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		key, payload, err := parseFrame(data)
		if err != nil {
			return
		}
		if again := appendFrame(nil, key, payload); !bytes.Equal(again, data) {
			t.Fatalf("frame of (%q, %q) is %x, parsed from %x", key, payload, again, data)
		}
		if int64(len(data)) != frameSize(key, payload) {
			t.Fatalf("frameSize = %d for a %d-byte frame", frameSize(key, payload), len(data))
		}
	})
}

// TestRecallServesKeptValue checks a kept value is recalled under its key
// only, refreshes nothing on disk, and counts as a store hit.
func TestRecallServesKeptValue(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 1<<20)
	key := hexKey(1)
	s.Put(key, []byte("payload"))
	if _, ok := s.Recall(key); ok {
		t.Fatal("Recall before Keep should miss")
	}
	s.Keep(key, "parsed", 100)
	v, ok := s.Recall(key)
	if !ok || v != "parsed" {
		t.Fatalf("Recall = %v, %v; want the kept value", v, ok)
	}
	if _, ok := s.Recall(hexKey(2)); ok {
		t.Fatal("Recall of an unpublished key should miss")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Kept != 1 || st.KeptBytes != 100 {
		t.Fatalf("stats = %+v; want 1 hit, 0 misses, 1 kept value of 100 bytes", st)
	}
}

// TestKeepNeedsFrame checks the tier keeps nothing beside a frame the store
// does not hold: an unpublished key, a dropped oversized payload, or a
// disabled store.
func TestKeepNeedsFrame(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 64)
	s.Keep(hexKey(1), "parsed", 10)
	s.Put(hexKey(2), bytes.Repeat([]byte("z"), 1024))
	s.Keep(hexKey(2), "parsed", 10)
	if st := s.Stats(); st.Kept != 0 {
		t.Fatalf("tier holds %d values without frames", st.Kept)
	}
	off := mustOpen(t, t.TempDir(), 0)
	off.Put(hexKey(1), []byte("bytes"))
	off.Keep(hexKey(1), "parsed", 10)
	if _, ok := off.Recall(hexKey(1)); ok {
		t.Fatal("disabled store recalled a value")
	}
}

// TestTierRespectsCap keeps values whose charges overflow the cap: the tier
// never holds more than tierCap, evicts least recently used values first,
// and drops a value larger than the whole tier.
func TestTierRespectsCap(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 1<<20)
	for i := 0; i < 6; i++ {
		s.Put(hexKey(i), []byte("payload"))
	}
	third := int64(tierCap / 3)
	for i := 0; i < 3; i++ {
		s.Keep(hexKey(i), i, third)
	}
	// Recalling key 0 makes key 1 the least recently used value.
	if _, ok := s.Recall(hexKey(0)); !ok {
		t.Fatal("key 0 should be kept")
	}
	s.Keep(hexKey(3), 3, third)
	if _, ok := s.Recall(hexKey(1)); ok {
		t.Fatal("the least recently used value survived")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := s.Recall(hexKey(i)); !ok {
			t.Fatalf("key %d evicted from the tier; want kept", i)
		}
	}
	s.Keep(hexKey(4), 4, tierCap+1)
	if _, ok := s.Recall(hexKey(4)); ok {
		t.Fatal("a value larger than the tier was kept")
	}
	s.Keep(hexKey(5), 5, tierCap)
	st := s.Stats()
	if st.KeptBytes > tierCap || st.Kept != 1 {
		t.Fatalf("stats = %+v; want one value within the %d-byte cap", st, tierCap)
	}
	if st.Entries != 6 {
		t.Fatalf("tier eviction removed frames: %d entries, want 6", st.Entries)
	}
}

// TestTierDropsEvictedAndCorruptFrames checks a value lives only as long
// as its frame: evicting the frame for the byte budget, or finding it
// corrupt on a read, drops the kept value too.
func TestTierDropsEvictedAndCorruptFrames(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100)
	one := frameSize(hexKey(0), payload)
	s := mustOpen(t, dir, 3*one)
	for i := 0; i < 3; i++ {
		s.Put(hexKey(i), payload)
		s.Keep(hexKey(i), i, 10)
	}
	// Recalling key 0 refreshes its frame too, so key 1's frame is evicted.
	if _, ok := s.Recall(hexKey(0)); !ok {
		t.Fatal("key 0 should be kept")
	}
	s.Put(hexKey(3), payload)
	if _, ok := s.Recall(hexKey(1)); ok {
		t.Fatal("an evicted frame's value was recalled")
	}
	if st := s.Stats(); st.Kept != 2 || st.KeptBytes != 20 || st.Evictions != 1 {
		t.Fatalf("stats after eviction = %+v; want 2 kept values of 20 bytes, 1 eviction", st)
	}

	path := filepath.Join(dir, fileName(hexKey(2)))
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Recall(hexKey(2)); !ok || v != 2 {
		t.Fatalf("Recall reads no file: got %v, %v; want the kept value", v, ok)
	}
	if _, ok := s.Get(hexKey(2)); ok {
		t.Fatal("corrupt frame was served")
	}
	if _, ok := s.Recall(hexKey(2)); ok {
		t.Fatal("a corrupt frame's value was recalled")
	}
	if st := s.Stats(); st.Kept != 1 || st.Corrupt != 1 {
		t.Fatalf("stats after corruption = %+v; want 1 kept value, 1 corrupt frame", st)
	}
}

// TestTierConcurrent races recalls, keeps, puts and budget evictions on a
// few keys; run under -race it checks the tier shares the store's lock.
func TestTierConcurrent(t *testing.T) {
	payload := bytes.Repeat([]byte("c"), 64)
	s := mustOpen(t, t.TempDir(), 4*frameSize(hexKey(0), payload))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := hexKey((w + i) % 6)
				if v, ok := s.Recall(k); ok && v != k {
					t.Errorf("Recall(%s) = %v", k, v)
					return
				}
				s.Put(k, payload)
				s.Keep(k, k, tierCap/3)
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.KeptBytes > tierCap || st.Kept > st.Entries {
		t.Fatalf("stats = %+v; the tier outgrew its cap or its frames", st)
	}
}
