package store

// Recount walks tenant's lines and recounts the resident entries and
// their value bytes from scratch: the ground truth the running books
// (TenantStats.Keys/Bytes, Store.Bytes) are checked against in tests.
func Recount(s *Store, tenant string) (keys, bytes int64) {
	t := s.roster.Load().byName[tenant]
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, e := range t.lines {
		keys++
		bytes += int64(len(e.val))
	}
	return keys, bytes
}

// Value returns the slice the store holds as (tenant, key)'s value, nil
// when it holds none, without a cache access.
func Value(s *Store, tenant, key string) []byte {
	t := s.roster.Load().byName[tenant]
	t.mu.RLock()
	defer t.mu.RUnlock()
	if e := find(t, hashKey(key), key); e != nil {
		return e.val
	}
	return nil
}
