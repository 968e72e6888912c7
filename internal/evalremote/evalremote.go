// Package evalremote is the network tier of the evaluation cache: it lets
// a fleet of processes share one content-addressed eval corpus at wire
// speed. The server side mounts three routes beside xpserved's job API —
//
//	GET  /v1/cache/{key}   one record (200 + record body, or 404)
//	PUT  /v1/cache/{key}   store one record (204)
//	POST /v1/cache/lookup  batched multi-get ({"keys": [hex...]} →
//	                       {"hits": {hex: base64 record}})
//
// — serving the process's memory LRU plus its local disk store with the
// exact record encoding evalstore writes to disk (the fixed-layout
// xpeval-record-v2: versioned header, fixed-width fields, CRC-32C), so the
// two persistent tiers stay byte-compatible by construction. The
// client side is an evalengine.CacheBackend that composes behind the
// in-memory LRU and the local disk tier (memory → disk → remote): a
// remote hit costs one HTTP round trip instead of a multi-millisecond
// simulation, and is promoted onto local disk on the way through.
//
// Key ownership is sharded by rendezvous hashing: every evalengine.Key
// belongs to the peer of the -cache-peers list whose seed (the SHA-256 of
// its base URL) mixes with the key's leading digest bytes to the highest
// weight. Ownership is a pure function of the peer set — list order does
// not matter — so every process pointed at the same peers asks the same
// peer for each key, with no coordination.
//
// The cache is an optimization, never a dependency — the client fails
// open to a miss on every failure mode:
//
//   - every request is one attempt bounded by Options.Timeout; the
//     deadline is the request's own, never the caller's run deadline
//   - a request that fails — transport error, timeout, a status other
//     than 200/404, an undecodable lookup response — marks its peer down
//     for a fixed few seconds, during which its keys miss without touching
//     the network, so a dead or hung peer costs one timeout, not one per key
//   - a corrupt or wrong-version record body (a bad header, length or
//     checksum) is a miss and an error count, exactly like a quarantined
//     disk record; it is that record's problem, so the peer stays up
//
// Writes are write-behind like the disk tier's — Put enqueues and
// returns, a writer goroutine delivers, Flush is a FIFO barrier — but a
// full queue, a down peer or a failed delivery DROPS the record (counted,
// never retried): unlike the disk tier, losing a remote write costs
// nothing, because the evaluation is already memoized in the faster tiers
// and any peer can re-derive it. A slow or dead peer can therefore never
// stall the simulate hot path or a tool's shutdown, only lower the hit
// rate.
package evalremote

import (
	"crypto/sha256"
	"encoding/binary"

	"xpscalar/internal/evalengine"
)

// peerSeed is a peer's rendezvous seed: the leading bytes of the SHA-256
// of its base URL, so every process derives the same seed for the same
// peer.
func peerSeed(base string) uint64 {
	h := sha256.Sum256([]byte(base))
	return binary.BigEndian.Uint64(h[:8])
}

// weight mixes a peer seed with a key position into the peer's rendezvous
// weight for that key (the 64-bit murmur3 finalizer over their XOR). The
// finalizer is a bijection with full avalanche, so distinct peers get
// distinct, independent-looking weights for every key.
func weight(seed, pos uint64) uint64 {
	x := seed ^ pos
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// owner returns the peer owning k: the one with the highest weight for the
// key's leading digest bytes, which are already uniform (SHA-256).
func (c *Client) owner(k evalengine.Key) *peer {
	pos := binary.BigEndian.Uint64(k[:8])
	best, bestW := c.peers[0], weight(c.peers[0].seed, pos)
	for _, p := range c.peers[1:] {
		if w := weight(p.seed, pos); w > bestW {
			best, bestW = p, w
		}
	}
	return best
}
