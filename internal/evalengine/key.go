// The cache identity of an evaluation request. Key is the SHA-256 digest
// of a fixed binary preimage of the request tuple: a version tag, then
// every leaf of the configuration, the profile (its name behind its
// length), the budget, the technology and the objective, each at a fixed
// width, floats as their IEEE-754 bits. Fixed widths make the encoding
// unambiguous, and float bits keep apart values a rounded rendering would
// merge (sim.Config's String rounds the clock period). The preimage is
// built in a stack buffer, so a key costs no allocation. Unlike a printed
// struct, the preimage does not pick up a field added later on its own;
// TestKeyCoversEveryLeaf walks every leaf by reflection and fails until it
// does. The digest is fixed-size, stable across processes and builds, safe
// as a content address in a persistent store, and uniform, so cache
// sharding falls out of its first bytes.

package evalengine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/workload"
)

// keyTag opens every key preimage. Bump it when the preimage layout
// changes: keys then change with it, so a persistent store addressed by
// the old keys is never read again instead of being read under
// reinterpreted identities.
const keyTag = "xpeval-key-v2\n"

// keyBufBytes sizes KeyOf's stack buffer: the 414 bytes of fixed-width
// leaves plus room for a profile name of up to 98 bytes. A longer name
// moves the preimage to the heap and changes nothing else.
const keyBufBytes = 512

// Key is the canonical identity of one evaluation request: the SHA-256
// digest of the request's fixed binary preimage. Two requests have equal
// keys exactly when every field of (config, profile, budget, technology,
// objective) is equal; the digest is stable across processes, so a Key
// computed today addresses the same design point in any later run's
// persistent store. The zero Key is not a valid identity.
type Key [sha256.Size]byte

// KeyOf derives the request's key. It allocates nothing for profile
// names that fit its stack buffer.
func KeyOf(cfg sim.Config, p workload.Profile, budget int, t tech.Params, obj power.Objective) Key {
	var buf [keyBufBytes]byte
	return Key(sha256.Sum256(appendRequest(buf[:0], cfg, p, budget, t, obj)))
}

// appendRequest appends the request's key preimage to b.
func appendRequest(b []byte, cfg sim.Config, p workload.Profile, budget int, t tech.Params, obj power.Objective) []byte {
	b = append(b, keyTag...)
	b = AppendConfig(b, cfg)
	b = appendProfile(b, p)
	b = appendInt(b, int64(budget))
	b = appendFloat(b, t.MemoryLatencyNs)
	b = appendFloat(b, t.FrontEndLatencyNs)
	b = appendInt(b, int64(t.IQEntryBytes))
	b = appendFloat(b, t.LatchLatencyNs)
	b = appendFloat(b, t.FO4Ns)
	b = appendFloat(b, t.WireNsPerMm)
	b = appendFloat(b, t.BitAreaMm2)
	return appendInt(b, int64(obj))
}

// appendProfile appends every leaf of p in declaration order, the name
// first behind its length. Two profiles append equal bytes exactly when
// they are equal, which is also what the trace store keys streams by.
func appendProfile(b []byte, p workload.Profile) []byte {
	b = appendInt(b, int64(len(p.Name)))
	b = append(b, p.Name...)
	b = appendFloat(b, p.LoadFrac)
	b = appendFloat(b, p.StoreFrac)
	b = appendFloat(b, p.BranchFrac)
	b = appendFloat(b, p.MulFrac)
	b = appendFloat(b, p.DivFrac)
	b = appendInt(b, p.WorkingSetBytes)
	b = appendInt(b, p.HotSetBytes)
	b = appendFloat(b, p.HotFrac)
	b = appendFloat(b, p.SeqFrac)
	b = appendInt(b, int64(p.StrideBytes))
	b = appendFloat(b, p.PtrChaseFrac)
	b = appendInt(b, int64(p.BranchSites))
	b = appendFloat(b, p.LoopFrac)
	b = appendInt(b, int64(p.LoopTrip))
	b = appendFloat(b, p.TakenBias)
	b = appendFloat(b, p.RandomEntropy)
	b = appendFloat(b, p.DepDensity)
	b = appendFloat(b, p.DepDistMean)
	return appendInt(b, p.Seed)
}

func appendInt(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// configIntLeaves is the number of int leaves in a sim.Config.
const configIntLeaves = 20

// ConfigBytes is the size of a sim.Config's fixed binary layout: the
// clock period's bits and one int64 per int leaf.
const ConfigBytes = 8 * (1 + configIntLeaves)

// configInts lists c's int leaves in layout order, nested cache
// geometries and predictor included. It is the one place that order is
// written down: AppendConfig writes through it and ReadConfig reads
// through it.
func configInts(c *sim.Config) [configIntLeaves]*int {
	return [...]*int{
		&c.Width, &c.FrontEndStages, &c.ROBSize, &c.IQSize, &c.LSQSize,
		&c.SchedDepth, &c.LSQDepth, &c.WakeupMinLat,
		&c.L1D.Sets, &c.L1D.Assoc, &c.L1D.BlockBytes, &c.L1DLat,
		&c.L2.Sets, &c.L2.Assoc, &c.L2.BlockBytes, &c.L2Lat, &c.MemCycles,
		(*int)(&c.Bpred.Kind), &c.Bpred.TableBits, &c.Bpred.HistBits,
	}
}

// AppendConfig appends c's fixed binary layout to b: ClockNs as its
// IEEE-754 bits, then every int leaf as a little-endian int64, in
// declaration order. The key preimage and the evalstore record both
// write a configuration through it; ReadConfig is its inverse.
func AppendConfig(b []byte, c sim.Config) []byte {
	b = appendFloat(b, c.ClockNs)
	for _, p := range configInts(&c) {
		b = appendInt(b, int64(*p))
	}
	return b
}

// ReadConfig decodes the layout AppendConfig writes from the front of b
// and returns the bytes after it. It fails on a buffer shorter than
// ConfigBytes and on an int leaf that does not fit int.
func ReadConfig(b []byte) (sim.Config, []byte, error) {
	var c sim.Config
	if len(b) < ConfigBytes {
		return sim.Config{}, b, fmt.Errorf("evalengine: config layout needs %d bytes, have %d", ConfigBytes, len(b))
	}
	c.ClockNs = math.Float64frombits(binary.LittleEndian.Uint64(b))
	b = b[8:]
	for _, p := range configInts(&c) {
		v := int64(binary.LittleEndian.Uint64(b))
		if int64(int(v)) != v {
			return sim.Config{}, b, fmt.Errorf("evalengine: config int %d does not fit int", v)
		}
		*p = int(v)
		b = b[8:]
	}
	return c, b, nil
}

// String returns the key as 64 lowercase hex digits — the form used in
// remote-tier URLs and log lines.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// shardIndex maps the key onto one of n cache shards using the digest's
// leading bytes; SHA-256 output is uniform, so no second hash is needed.
func (k Key) shardIndex(n int) int {
	return int(binary.BigEndian.Uint32(k[:4]) % uint32(n))
}

// ParseKey parses the 64-hex-digit form back into a Key (the remote
// tier's server uses it to recover identities from request paths).
func ParseKey(s string) (Key, bool) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != sha256.Size {
		return Key{}, false
	}
	copy(k[:], b)
	return k, true
}
