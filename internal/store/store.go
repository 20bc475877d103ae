package store

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"dense802154/internal/query"
)

// DefaultMaxBytes is the in-memory tier budget when Config.MaxBytes is 0.
const DefaultMaxBytes = 256 << 20

// resultIndex is the reserved entry index of a whole-query ResultSet body
// (task indexes are ≥ 0). In memory, a query's whole entry and its task
// entries share one byte array once PutResult has seen the task spans.
const resultIndex = -1

// entryOverhead approximates the fixed per-entry memory cost (map slot, key,
// list links) charged against the byte budget on top of the payload.
const entryOverhead = 128

// Config parameterizes a Store.
type Config struct {
	// MaxBytes bounds the in-memory tier (payload bytes plus a fixed
	// per-entry overhead), LRU-evicted; 0 selects DefaultMaxBytes.
	MaxBytes int64
	// Dir, when non-empty, enables the on-disk tier: every put is also
	// written (atomically) to one file per entry under Dir, and a memory
	// miss falls through to a checksum-verified disk read. The directory is
	// created if needed and may be shared across restarts — that is the
	// point.
	Dir string
}

// entryKey addresses one stored entry: the query's content key plus the plan
// task index (resultIndex for whole-query ResultSet bytes).
type entryKey struct {
	key   Key
	index int
}

// entry is one in-memory cache line on the intrusive recency list.
type entry struct {
	k entryKey
	b []byte
	// size is the payload length charged against the budget: len(b) as
	// put, kept when b is re-pointed into a whole-query body.
	size int64
	// shared marks a task entry whose b aliases its query's whole entry.
	shared bool
	// tasks is, on a whole entry, one past the highest task index that
	// PutResult re-pointed into it.
	tasks int
	// spans locates, on a whole entry, the task elements of b (PutResult's
	// spans, or query.ResultSpans of a body read from disk); nil when they
	// were not given.
	spans      []query.TaskSpan
	prev, next *entry
}

// Stats is a point-in-time snapshot of the in-memory tier.
type Stats struct {
	Entries int
	Bytes   int64
}

// Store is the two-tier content-addressed result store. All methods are safe
// for concurrent use. Byte slices cross the API boundary uncopied on Get
// (the hit path allocates nothing) and are copied on Put; callers must treat
// returned bytes as immutable.
type Store struct {
	cfg Config

	mu      sync.Mutex
	entries map[entryKey]*entry
	root    entry // sentinel: root.next is most recent, root.prev least
	bytes   int64
}

// New builds a Store, creating the on-disk tier directory when configured.
func New(cfg Config) (*Store, error) {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	s := &Store{cfg: cfg, entries: make(map[entryKey]*entry)}
	s.root.prev = &s.root
	s.root.next = &s.root
	return s, nil
}

// Stats snapshots the in-memory tier.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Entries: len(s.entries), Bytes: s.bytes}
}

// GetTask returns the stored encoded TaskResult of (key, index), or false on
// a miss. Memory hits cost no allocation; memory misses fall through to the
// disk tier, whose hits are promoted into memory.
func (s *Store) GetTask(key Key, index int) ([]byte, bool) {
	if index < 0 {
		return nil, false
	}
	b, _, ok := s.get(entryKey{key, index})
	return b, ok
}

// PutTask stores the encoded TaskResult of (key, index). The bytes are
// copied; negative indexes (reserved for whole-query entries) are dropped.
func (s *Store) PutTask(key Key, index int, b []byte) {
	if index < 0 {
		return
	}
	s.put(entryKey{key, index}, b, nil)
}

// GetResult returns the stored whole-query ResultSet bytes of key.
func (s *Store) GetResult(key Key) ([]byte, bool) {
	b, _, ok := s.get(entryKey{key, resultIndex})
	return b, ok
}

// GetResultSpans is GetResult plus the task spans of the body, which say
// where each task element sits in it (query.ResultSet.EncodeSpans): their
// count is the query's task count, and they replay the body as a stream
// without decoding it. A memory hit returns the spans PutResult was given;
// a body put without spans, or read back from disk, is scanned for them
// (query.ResultSpans). A body that does not scan is a miss.
func (s *Store) GetResultSpans(key Key) ([]byte, []query.TaskSpan, bool) {
	b, spans, ok := s.get(entryKey{key, resultIndex})
	if !ok || spans != nil {
		return b, spans, ok
	}
	spans, err := query.ResultSpans(b)
	return b, spans, err == nil
}

// PutResult stores the whole-query ResultSet bytes of key — the exact bytes
// served, so a later hit is byte-identical by construction. The body is
// copied once; spans (query.ResultSet.EncodeSpans) locate its task
// elements and are kept with it for GetResultSpans (the store keeps the
// slice: the caller must not modify it). Every in-memory task entry of key
// whose bytes equal its element (ignoring the task line's trailing
// newline) is re-pointed at it, so a computed query's answer is held once,
// not twice. Budget charges do not change: each entry keeps the size it
// was put with. Should the whole entry be evicted first, its surviving
// task entries get their own copies back, so shared bytes never outlive
// their charge.
func (s *Store) PutResult(key Key, b []byte, spans ...query.TaskSpan) {
	s.put(entryKey{key, resultIndex}, b, spans)
}

// shareLocked re-points the task entries named by spans into whole's bytes.
func (s *Store) shareLocked(whole *entry, spans []query.TaskSpan) {
	for _, sp := range spans {
		if sp.Index < 0 || sp.Start < 0 || sp.Start > sp.End || sp.End > len(whole.b) {
			continue
		}
		e, ok := s.entries[entryKey{whole.k.key, sp.Index}]
		if !ok {
			continue
		}
		el := whole.b[sp.Start:sp.End:sp.End]
		if !bytes.Equal(bytes.TrimSuffix(e.b, []byte{'\n'}), el) {
			continue
		}
		e.b = el
		e.shared = true
		whole.tasks = max(whole.tasks, sp.Index+1)
	}
}

// unshareLocked gives every task entry still sharing the evicted whole's
// bytes its own copy.
func (s *Store) unshareLocked(whole *entry) {
	for i := 0; i < whole.tasks; i++ {
		if e, ok := s.entries[entryKey{whole.k.key, i}]; ok && e.shared {
			e.b = bytes.Clone(e.b)
			e.shared = false
		}
	}
}

// taskView adapts one query's slice of the store to query.TaskStore.
type taskView struct {
	s   *Store
	key Key
}

func (v *taskView) GetTask(index int) ([]byte, bool)  { return v.s.GetTask(v.key, index) }
func (v *taskView) PutTask(index int, encoded []byte) { v.s.PutTask(v.key, index, encoded) }

// Tasks returns the per-task store view of q for attaching to a compiled
// Plan (Plan.Store), or nil when q is not cacheable (Direct inputs) or the
// store itself is nil — both safe to assign to Plan.Store directly.
func (s *Store) Tasks(q query.Query) query.TaskStore {
	key, ok := KeyFor(q)
	if !ok {
		return nil
	}
	return s.TasksByKey(key)
}

// TasksByKey is Tasks for a caller that already holds the query's key.
func (s *Store) TasksByKey(key Key) query.TaskStore {
	if s == nil {
		return nil
	}
	return &taskView{s: s, key: key}
}

// get looks up k memory-first, then disk. spans are those of a whole entry.
func (s *Store) get(k entryKey) ([]byte, []query.TaskSpan, bool) {
	s.mu.Lock()
	if e, ok := s.entries[k]; ok {
		s.unlink(e)
		s.pushFront(e)
		b, spans := e.b, e.spans
		s.mu.Unlock()
		HitsTotal.Inc()
		return b, spans, true
	}
	s.mu.Unlock()
	if s.cfg.Dir != "" {
		if b, ok := s.diskRead(k); ok {
			HitsTotal.Inc()
			DiskHitsTotal.Inc()
			var spans []query.TaskSpan
			if k.index == resultIndex {
				spans, _ = query.ResultSpans(b)
			}
			s.mu.Lock()
			if e := s.insertLocked(k, b); e != nil {
				e.spans = spans
			}
			s.mu.Unlock()
			return b, spans, true
		}
	}
	MissesTotal.Inc()
	return nil, nil, false
}

// put copies b, installs it in the memory tier with spans, re-points the
// task entries spans name into it, and mirrors it to disk.
func (s *Store) put(k entryKey, b []byte, spans []query.TaskSpan) {
	PutsTotal.Inc()
	c := make([]byte, len(b))
	copy(c, b)
	s.mu.Lock()
	if e := s.insertLocked(k, c); e != nil {
		e.spans = spans
		s.shareLocked(e, spans)
	}
	s.mu.Unlock()
	if s.cfg.Dir != "" {
		s.diskWrite(k, c)
	}
}

// insertLocked installs owned bytes into the memory tier, evicts from the
// cold end while over budget, and returns the installed entry. An entry
// larger than the whole budget skips the memory tier (it would evict
// everything and then itself) and returns nil; the disk tier still holds it.
func (s *Store) insertLocked(k entryKey, b []byte) *entry {
	size := int64(len(b))
	if size+entryOverhead > s.cfg.MaxBytes {
		return nil
	}
	e, ok := s.entries[k]
	if ok {
		s.bytes += size - e.size
		BytesGauge.Add(size - e.size)
		e.b, e.size, e.shared, e.spans = b, size, false, nil
		s.unlink(e)
		s.pushFront(e)
	} else {
		e = &entry{k: k, b: b, size: size}
		s.entries[k] = e
		s.pushFront(e)
		s.bytes += size + entryOverhead
		BytesGauge.Add(size + entryOverhead)
		EntriesGauge.Add(1)
	}
	for s.bytes > s.cfg.MaxBytes {
		old := s.root.prev
		if old == &s.root {
			break
		}
		s.unlink(old)
		delete(s.entries, old.k)
		if old.tasks > 0 {
			s.unshareLocked(old)
		}
		s.bytes -= old.size + entryOverhead
		BytesGauge.Add(-(old.size + entryOverhead))
		EntriesGauge.Add(-1)
		EvictionsTotal.Inc()
	}
	return e
}

func (s *Store) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (s *Store) pushFront(e *entry) {
	e.prev = &s.root
	e.next = s.root.next
	e.prev.next = e
	e.next.prev = e
}

// ---- on-disk tier ----
//
// One file per entry: payload bytes followed by their SHA-256. Writes go to
// a temp file in the same directory and rename into place, so a reader only
// ever sees a complete former or current entry — a crash mid-write leaves a
// temp file, never a short entry file. Reads verify the trailing checksum
// and delete anything that fails it (truncation, bit rot, a foreign file
// under the entry's name): the result is a miss and a recompute, never a
// wrong byte.

// diskPath names the entry file: <hex key>.<index>, with the whole-query
// entry as <hex key>.result.
func (s *Store) diskPath(k entryKey) string {
	suffix := "result"
	if k.index >= 0 {
		suffix = strconv.Itoa(k.index)
	}
	return filepath.Join(s.cfg.Dir, k.key.String()+"."+suffix)
}

func (s *Store) diskRead(k entryKey) ([]byte, bool) {
	path := s.diskPath(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			DiskErrorsTotal.Inc()
		}
		return nil, false
	}
	n := len(raw) - sha256.Size
	if n < 0 {
		DiskErrorsTotal.Inc()
		_ = os.Remove(path)
		return nil, false
	}
	sum := sha256.Sum256(raw[:n])
	if subtle.ConstantTimeCompare(sum[:], raw[n:]) != 1 {
		DiskErrorsTotal.Inc()
		_ = os.Remove(path)
		return nil, false
	}
	return raw[:n:n], true
}

func (s *Store) diskWrite(k entryKey, b []byte) {
	tmp, err := os.CreateTemp(s.cfg.Dir, ".tmp-*")
	if err != nil {
		DiskErrorsTotal.Inc()
		return
	}
	sum := sha256.Sum256(b)
	_, werr := tmp.Write(b)
	if werr == nil {
		_, werr = tmp.Write(sum[:])
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), s.diskPath(k))
	}
	if werr != nil {
		DiskErrorsTotal.Inc()
		_ = os.Remove(tmp.Name())
	}
}
