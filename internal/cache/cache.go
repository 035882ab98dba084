// Package cache implements the set-associative cache model used for the
// data hierarchy (L1/L2/LLC) and for the secure-memory metadata caches
// (encryption-counter cache, integrity-tree cache, LMM cache).
//
// Two properties needed by the paper's evaluation are supported beyond a
// plain LRU cache:
//
//   - Randomized indexing (Randomized in the config): a keyed hash maps a
//     line address to its set, standing in for MIRAGE-style randomized
//     caches that the baseline integrates to defeat conflict-based attacks.
//   - Way partitioning/locking: a number of ways per set can be reserved so
//     that pinned lines (e.g. the tree levels above TreeLing roots) are
//     never evicted by normal fills, matching IvLeague's root locking.
//
// The replacement state lives in one flat uint64 arena with each set's
// block laid out contiguously: the way tags first, then one recency word,
// then one flags word. The tag-match loop — the hottest loop in the whole
// simulator — thus scans ways*8 contiguous bytes, and invalid ways carry a
// sentinel tag so the hit path needs no validity check. The recency word
// lists the set's non-reserved ways as 4-bit way indices, most recently
// used first; a hit or fill moves its way to the front, so the LRU victim
// is the last index in the word. The flags word holds the dirty bits
// (bits 0–15) and the non-reserved ways' valid bits (bits 32–47); a fill
// takes the lowest-index invalid non-reserved way first. One nibble per way caps
// associativity at 16 ways, which config.CacheConfig.Validate enforces.
package cache

import (
	"fmt"
	"math/bits"

	"ivleague/internal/config"
	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
)

// invalidTag marks an empty way. Real tags are line addresses
// (byte address >> lineShift, so at most 2^58 with 64-byte lines) and can
// never collide with it.
const invalidTag = ^uint64(0)

// Result describes the outcome of a cache access.
type Result struct {
	Hit bool
	// Evicted reports that a valid line was displaced by the fill.
	Evicted bool
	// WritebackAddr is the byte address of the displaced dirty line;
	// meaningful only when EvictedDirty is true.
	WritebackAddr uint64
	EvictedDirty  bool
	// Latency is the hit latency of this cache in cycles (the caller adds
	// lower-level latency on a miss).
	Latency int
}

// Cache is a single-level set-associative cache model. It tracks only tags
// and replacement state (no data contents); functional data lives in the
// memory model.
type Cache struct {
	cfg       config.CacheConfig
	ways      int
	stride    int      // uint64 words per set block (64-byte aligned)
	data      []uint64 // nsets * stride words
	setMask   uint64
	lineShift uint
	key       uint64 // randomized-indexing key
	reserved  int    // ways [0,reserved) hold only locked lines
	normal    uint64 // bit mask of the non-reserved ways
	order0    uint64 // recency word of an empty set
	lruShift  uint   // bit offset of the LRU nibble in the recency word

	Hits      stats.Counter
	Misses    stats.Counter
	Evictions stats.Counter
}

// validShift is the bit offset of the valid bits in a set's flags word.
const validShift = 32

// nibbles has a 1 in every 4-bit lane of a recency word.
const nibbles = 0x1111111111111111

// New builds a cache from its configuration. seed keys the randomized index
// hash (ignored for non-randomized caches). reservedWays ways per set are
// set aside for locked lines; pass 0 for a normal cache. The geometry is
// validated up front so every later access is total.
func New(cfg config.CacheConfig, seed uint64, reservedWays int) (*Cache, error) {
	if err := cfg.Validate("cache"); err != nil {
		return nil, err
	}
	if reservedWays < 0 || reservedWays >= cfg.Ways {
		return nil, fmt.Errorf("cache: reservedWays %d must leave at least one normal way of %d", reservedWays, cfg.Ways)
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:      cfg,
		ways:     cfg.Ways,
		setMask:  uint64(nsets - 1),
		key:      seed ^ 0x9e3779b97f4a7c15,
		reserved: reservedWays,
		normal:   1<<uint(cfg.Ways) - 1<<uint(reservedWays),
		lruShift: 4 * uint(cfg.Ways-reservedWays-1),
	}
	for w := reservedWays; w < cfg.Ways; w++ {
		c.order0 |= uint64(w) << (4 * uint(w-reservedWays))
	}
	for 1<<c.lineShift < cfg.LineBytes {
		c.lineShift++
	}
	// Round the block (tags, recency word, flags word) up to a whole number
	// of 64-byte lines so sets never share a host cache line.
	c.stride = (c.ways + 2 + 7) &^ 7
	c.data = make([]uint64, nsets*c.stride)
	for set := 0; set < nsets; set++ {
		c.reset(set * c.stride)
	}
	return c, nil
}

// reset empties the set block at base.
func (c *Cache) reset(base int) {
	for w := 0; w < c.ways; w++ {
		c.data[base+w] = invalidTag
	}
	c.data[base+c.ways] = c.order0
	c.data[base+c.ways+1] = 0
}

func (c *Cache) index(lineAddr uint64) uint64 {
	if !c.cfg.Randomized {
		return lineAddr & c.setMask
	}
	// A keyed mix standing in for the randomized address-to-set mapping of
	// MIRAGE-style caches.
	x := lineAddr ^ c.key
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	x *= 0x94d049bb133111eb
	x ^= x >> 32
	return x & c.setMask
}

// touch moves non-reserved way w to the front of the recency word of the
// set block at base. The word holds each non-reserved way exactly once, so
// the first nibble equal to w — found with the SWAR zero-nibble test on
// word^w — is its position p; nibbles 0..p-1 shift up one place.
func (c *Cache) touch(base, w int) {
	o := &c.data[base+c.ways]
	x := *o ^ uint64(w)*nibbles
	sh := uint(bits.TrailingZeros64((x-nibbles)&^x&(8*nibbles))) &^ 3
	before := uint64(1)<<sh - 1
	*o = *o&^(before<<4|0xf) | (*o&before)<<4 | uint64(w)
}

// Access looks up addr (a byte address), filling on a miss. write marks the
// line dirty on hit or fill.
//
//ivlint:hotpath
func (c *Cache) Access(addr uint64, write bool) Result {
	lineAddr := addr >> c.lineShift
	base := int(c.index(lineAddr)) * c.stride
	tags := c.data[base : base+c.ways]
	res := Result{Latency: c.cfg.HitLatency}
	for i, t := range tags {
		if t == lineAddr {
			if i >= c.reserved {
				c.touch(base, i)
			}
			if write {
				c.data[base+c.ways+1] |= 1 << uint(i)
			}
			res.Hit = true
			c.Hits.Inc()
			return res
		}
	}
	c.Misses.Inc()
	// Fill: the lowest-index invalid non-reserved way, else the LRU one.
	// New guarantees reserved < ways, so victim selection is total.
	flags := &c.data[base+c.ways+1]
	victim := int(c.data[base+c.ways] >> c.lruShift & 0xf)
	if free := ^(*flags >> validShift) & c.normal; free != 0 {
		victim = bits.TrailingZeros64(free)
	}
	bit := uint64(1) << uint(victim)
	if tags[victim] != invalidTag {
		res.Evicted = true
		c.Evictions.Inc()
		if *flags&bit != 0 {
			res.EvictedDirty = true
			res.WritebackAddr = tags[victim] << c.lineShift
		}
	}
	tags[victim] = lineAddr
	c.touch(base, victim)
	*flags = *flags&^bit | bit<<validShift
	if write {
		*flags |= bit
	}
	return res
}

// Invalidate removes addr from the cache (even if locked), reporting whether
// it was present and whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	lineAddr := addr >> c.lineShift
	base := int(c.index(lineAddr)) * c.stride
	for i, t := range c.data[base : base+c.ways] {
		if t == lineAddr {
			bit := uint64(1) << uint(i)
			present, dirty = true, c.data[base+c.ways+1]&bit != 0
			c.data[base+i] = invalidTag
			c.data[base+c.ways+1] &^= bit | bit<<validShift
			return
		}
	}
	return
}

// Lock pins addr into one of the reserved ways of its set. Locked lines are
// immune to normal eviction. It returns an error if the cache was built
// without reserved ways or the set's reserved ways are all occupied by
// other locked lines: root locking is a static provisioning decision that
// must be sized correctly by the caller, and an undersized reservation must
// surface instead of silently dropping the pin.
func (c *Cache) Lock(addr uint64) error {
	if c.reserved == 0 {
		return fmt.Errorf("cache: Lock %#x on a cache without reserved ways", addr)
	}
	lineAddr := addr >> c.lineShift
	base := int(c.index(lineAddr)) * c.stride
	for i := 0; i < c.reserved; i++ {
		if c.data[base+i] == lineAddr {
			return nil // already locked
		}
	}
	for i := 0; i < c.reserved; i++ {
		if c.data[base+i] == invalidTag {
			c.data[base+i] = lineAddr
			return nil
		}
	}
	return fmt.Errorf("cache: reserved ways exhausted pinning %#x; increase RootLockWays or reduce pinned lines", addr)
}

// Flush invalidates every line, returning the number of dirty lines dropped.
func (c *Cache) Flush() int {
	dirty := 0
	for base := 0; base < len(c.data); base += c.stride {
		dirty += bits.OnesCount32(uint32(c.data[base+c.ways+1]))
		c.reset(base)
	}
	return dirty
}

// RegisterMetrics registers the cache's counters with a telemetry registry
// under "<prefix>.hits" / ".misses" / ".evictions"; Snapshot.HitRate then
// derives the hit rate every consumer previously hand-computed.
func (c *Cache) RegisterMetrics(r *telemetry.Registry, prefix string) {
	r.RegisterCounter(prefix+".hits", &c.Hits)
	r.RegisterCounter(prefix+".misses", &c.Misses)
	r.RegisterCounter(prefix+".evictions", &c.Evictions)
}
