// Package cluster is the distributed serving tier's routing layer: a
// consistent-hash ring over talus-serve nodes plus the peer client the
// thin proxy mode uses to forward requests to their owners.
//
// # Why a cluster tier at all
//
// Talus's whole point is that convexified miss curves make per-node
// cache performance smooth and predictable (no cliffs). That property
// pays off at fleet scale: when every node's hit ratio degrades
// gracefully with load, cross-node capacity planning becomes a simple
// sum instead of a cliff-hunting exercise. The ring makes the fleet
// addressable — every (tenant, key) pair has exactly one owner node —
// and the load harness (internal/loadgen) measures the result instead
// of asserting it.
//
// # The ring
//
// Ring hashes each node onto the 64-bit hash circle at VNodes points
// (virtual nodes; default DefaultVNodes). A key routes to the node
// owning the first point clockwise from the key's hash. Virtual nodes
// smooth the per-node key share toward 1/N (relative spread shrinks
// like 1/sqrt(VNodes)), and consistent hashing bounds churn: adding or
// removing one of N nodes remaps only the keys the changed node gains
// or loses — about K/N of K keys, never a full reshuffle.
// TestRingStability pins both properties.
//
// All hashing is seeded and pure (FNV-1a finalized by hash.Mix64 —
// the GF(2)-linear structure of the store's own key hash does not
// survive into ring placement), so two processes building a ring from
// the same node list, vnode count, and seed route every key
// identically. That determinism is what lets every node in a fleet —
// and every client — compute ownership locally with no coordination
// service. TestRingDeterminism pins the routing table bit-for-bit.
//
// # The client and proxy mode
//
// The far end of every hop is a talus-serve handler, so the hop speaks
// only the HTTP/1.1 subset that handler emits, on its own connections
// rather than through net/http's client. Each peer has a pool of up to
// DefaultMaxIdlePerHost keep-alive connections with a 4 KiB reader and
// writer each. Cluster.Relay writes the request itself (method, escaped
// path, Host, ForwardedHeader, the relayed request headers,
// Content-Length, body) and parses the status line and the few headers
// it needs (the relayed ones plus framing). The handler frames every
// reply by Content-Length on either transport, so that is the one
// framing the hop reads: a body of Content-Length bytes, or none on a
// 204 or 304. A HEAD goes to the owner as the GET it is served as, so
// that the entry node's HEAD reply states the length of the body it
// does not send. Anything else (a transfer coding, a body delimited by
// the owner hanging up, an HTTP/1.0 status line) is a malformed reply.
// It fills nothing of the caller's Reply until the whole response is in
// hand, the body read once into the Reply's own storage. A malformed
// reply or a failure mid-response is therefore still the caller's clean
// 502, and is not sent again.
//
// Every attempt has a DefaultTimeout deadline and ends early when the
// caller's context does. A connection is pooled again only after its
// response was consumed whole without "Connection: close". A request
// is re-sent, on a fresh dial and at most DefaultRetries times, only
// when it provably never reached a handler: the dial failed, or a
// pooled connection the owner had closed while idle ended (EOF or
// reset) before the first response byte. A timeout after the request
// was written is an error, never a re-send, since the owner may have
// applied a write. Any answer the owner gives — a 5xx included — is
// relayed, not retried.
//
// Cluster binds a Ring to this node's own identity and the peer pools:
// serve.Handler asks Owner(tenant, key) of each cache request's bytes,
// which hash as Ring.Route's strings do, and relays
// misses-of-ownership to that owner: it sends a Request as it
// is and fills a Reply with the owner's status, body and X-Talus-Cache /
// X-Talus-Node / ETag / Content-Type, the first occurrence of each,
// cleaned by Clean as net/http cleans a value it writes (CR and LF made
// spaces, ends trimmed). RequestHeaders and Clean are the one list of
// relayed request headers and the one cleaning rule, serve's too. A
// reused Reply costs the relay no allocation on the common path: the
// ETag and body are copied into its storage, and the values a
// talus-serve owner sends need no new string. ReadFull reads a body of
// known length, never more than 64 KiB ahead of its bytes. A caller
// whose context has no Done channel, as an owned connection's request
// has not, pays for no context.AfterFunc on the attempt.
// Forwarded requests carry the ForwardedHeader; a node receiving one
// serves locally no matter what its own ring says, so disagreeing ring
// configurations degrade to one extra hop instead of a forwarding loop.
package cluster
