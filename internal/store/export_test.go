package store

// Recount walks tenant's lines and recounts the resident entries and
// their value bytes from scratch: the ground truth the running books
// (TenantStats.Keys/Bytes, Store.Bytes) are checked against in tests.
func Recount(s *Store, tenant string) (keys, bytes int64) {
	s.mu.RLock()
	t := s.tenants[tenant]
	s.mu.RUnlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, e := range t.lines {
		for ; e != nil; e = e.next {
			keys++
			bytes += int64(len(e.val))
		}
	}
	return keys, bytes
}
