package store

// MemBytes returns the in-memory bytes of entry (key, index) — index -1 for
// the whole-query entry — without touching recency; false when the entry is
// not in the memory tier.
func (s *Store) MemBytes(key Key, index int) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[entryKey{key, index}]
	if !ok {
		return nil, false
	}
	return e.b, true
}
