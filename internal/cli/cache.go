// The persistent evaluation cache shared by the command-line tools: one
// -cache-dir flag that puts a content-addressed on-disk tier
// (internal/evalstore: one append-only pack file per directory, indexed
// when the tier opens) behind the session's in-memory cache, and one
// -cache-peers flag that adds a remote tier (internal/evalremote) behind
// the disk — memory → disk → remote, each slower and wider than the one
// before. Runs pointed at the same directory or fleet share their work
// across processes — a rerun of an exploration starts with every
// previously simulated point already cached — without changing a single
// result bit: the persistent tiers only ever serve values an engine
// computed and stored.

package cli

import (
	"flag"
	"strings"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/evalremote"
	"xpscalar/internal/evalstore"
)

// CacheConfig carries the persistent-cache flags.
type CacheConfig struct {
	// Dir is the store's root directory ("" for no disk tier).
	Dir string
	// Peers is a comma-separated list of remote cache base URLs
	// ("" for no remote tier).
	Peers string

	disk *evalstore.Store
}

// RegisterFlags registers -cache-dir and -cache-peers on the default
// flag set.
func (c *CacheConfig) RegisterFlags() {
	flag.StringVar(&c.Dir, "cache-dir", "",
		"persist evaluations to a content-addressed store in this directory, shared across runs")
	flag.StringVar(&c.Peers, "cache-peers", "",
		"comma-separated base URLs of remote cache peers (xpserved instances) to share evaluations with")
}

// Open opens the configured persistent tiers — disk, remote, or both
// composed — ready to hand to evalengine.Options.Backend. With nothing
// configured it returns (nil, nil): the session stays memory-only. The
// returned backend is owned by the session it is installed in —
// Session.Close (reached through Telemetry.Close on every tool's
// shutdown path) flushes and closes every tier.
func (c *CacheConfig) Open() (evalengine.CacheBackend, error) {
	var tiers []evalengine.CacheBackend
	if c.Dir != "" {
		s, err := evalstore.Open(c.Dir)
		if err != nil {
			return nil, err
		}
		c.disk = s
		tiers = append(tiers, s)
	}
	if c.Peers != "" {
		cl, err := evalremote.NewClient(c.peerList(), evalremote.Options{})
		if err != nil {
			if c.disk != nil {
				c.disk.Close()
				c.disk = nil
			}
			return nil, err
		}
		tiers = append(tiers, cl)
	}
	return evalengine.Tiered(tiers...), nil
}

// Disk returns the local disk store Open created, or nil. A cache
// server hands this (not the full tier chain) to its request handlers,
// so serving the fleet can never re-enter the fleet.
func (c *CacheConfig) Disk() evalengine.CacheBackend {
	if c.disk == nil {
		return nil
	}
	return c.disk
}

// peerList splits -cache-peers into its individual peer URLs.
func (c *CacheConfig) peerList() []string {
	var peers []string
	for _, p := range strings.Split(c.Peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}
