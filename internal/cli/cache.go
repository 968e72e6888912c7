// The persistent evaluation cache shared by the command-line tools: one
// -cache-dir flag that puts a content-addressed on-disk tier
// (internal/evalstore: one append-only pack file per directory, indexed
// when the tier opens) behind the session's in-memory cache. Runs pointed
// at the same directory share their work across processes — a rerun of an
// exploration starts with every previously simulated point already
// cached — and the pack file is what carries that work to another
// machine: copied, or concatenated with another pack by cat. None of it
// changes a single result bit: the disk tier only ever serves values an
// engine computed and stored.

package cli

import (
	"flag"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/evalstore"
)

// CacheConfig carries the persistent-cache flag.
type CacheConfig struct {
	// Dir is the store's root directory ("" for no disk tier).
	Dir string
}

// RegisterFlags registers -cache-dir on the default flag set.
func (c *CacheConfig) RegisterFlags() {
	flag.StringVar(&c.Dir, "cache-dir", "",
		"persist evaluations to a content-addressed store in this directory, shared across runs")
}

// Open opens the configured disk tier, ready to hand to
// evalengine.Options.Backend. Without -cache-dir it returns (nil, nil):
// the session stays memory-only. The returned store is owned by the
// session it is installed in — Session.Close (reached through
// Telemetry.Close on every tool's shutdown path) flushes and closes it.
func (c *CacheConfig) Open() (evalengine.CacheBackend, error) {
	if c.Dir == "" {
		// An untyped nil: a nil *evalstore.Store inside the interface
		// would read as a configured tier, and the engine would call it.
		return nil, nil
	}
	s, err := evalstore.Open(c.Dir)
	if err != nil {
		return nil, err
	}
	return s, nil
}
