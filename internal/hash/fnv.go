package hash

// FNV64a is the 64-bit FNV-1a hash of s. It is stable across processes,
// platforms and releases, so everything derived from it — a store key's
// line address, a value's ETag, a cluster node's ring position — is the
// same on every node and in every recorded trace. It is not mixed:
// callers that need avalanche apply Mix64.
func FNV64a[T string | []byte](s T) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
