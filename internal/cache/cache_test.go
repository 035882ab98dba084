package cache

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"ivleague/internal/config"
	"ivleague/internal/telemetry"
)

func smallCfg(randomized bool) config.CacheConfig {
	return config.CacheConfig{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64, HitLatency: 5, Randomized: randomized}
}

func mustNew(t *testing.T, cfg config.CacheConfig, seed uint64, reserved int) *Cache {
	t.Helper()
	c, err := New(cfg, seed, reserved)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// probe reports whether addr is present without changing any state.
func probe(c *Cache, addr uint64) bool {
	lineAddr := addr >> c.lineShift
	base := int(c.index(lineAddr)) * c.stride
	for _, t := range c.data[base : base+c.ways] {
		if t == lineAddr {
			return true
		}
	}
	return false
}

// occupancy returns the fraction of lines currently valid.
func occupancy(c *Cache) float64 {
	valid := 0
	nsets := int(c.setMask) + 1
	for set := 0; set < nsets; set++ {
		base := set * c.stride
		for w := 0; w < c.ways; w++ {
			if c.data[base+w] != invalidTag {
				valid++
			}
		}
	}
	return float64(valid) / float64(nsets*c.ways)
}

func TestHitAfterFill(t *testing.T) {
	c := mustNew(t, smallCfg(false), 1, 0)
	if r := c.Access(0x1000, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(0x1010, false); !r.Hit {
		t.Fatal("same-line offset missed")
	}
	if c.Hits.Value() != 2 || c.Misses.Value() != 1 {
		t.Fatalf("stats hits=%d misses=%d", c.Hits.Value(), c.Misses.Value())
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustNew(t, smallCfg(false), 1, 0)
	sets := uint64(c.cfg.Sets())
	// Fill one set with Ways+1 distinct lines mapping to set 0.
	for i := uint64(0); i < 5; i++ {
		c.Access(i*sets*64, false)
	}
	// The first line must have been evicted (LRU).
	if probe(c, 0) {
		t.Fatal("LRU line not evicted")
	}
	if !probe(c, 1*sets*64) {
		t.Fatal("recent line evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := mustNew(t, smallCfg(false), 1, 0)
	sets := uint64(c.cfg.Sets())
	c.Access(0, true) // dirty
	var wb Result
	for i := uint64(1); i <= 4; i++ {
		wb = c.Access(i*sets*64, false)
	}
	if !wb.Evicted || !wb.EvictedDirty || wb.WritebackAddr != 0 {
		t.Fatalf("expected dirty writeback of addr 0, got %+v", wb)
	}
}

func TestInvalidate(t *testing.T) {
	c := mustNew(t, smallCfg(false), 1, 0)
	c.Access(0x40, true)
	present, dirty := c.Invalidate(0x40)
	if !present || !dirty {
		t.Fatalf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if probe(c, 0x40) {
		t.Fatal("line still present after invalidate")
	}
	if p, _ := c.Invalidate(0x40); p {
		t.Fatal("double invalidate reported present")
	}
}

func TestLockedLinesSurviveThrashing(t *testing.T) {
	cfg := smallCfg(false)
	c := mustNew(t, cfg, 1, 1)
	sets := uint64(c.cfg.Sets())
	if err := c.Lock(0); err != nil {
		t.Fatal(err)
	}
	// Thrash set 0 with many conflicting lines.
	for i := uint64(1); i < 100; i++ {
		c.Access(i*sets*64, false)
	}
	if !probe(c, 0) {
		t.Fatal("locked line was evicted")
	}
}

func TestLockErrorsWithoutReservation(t *testing.T) {
	c := mustNew(t, smallCfg(false), 1, 0)
	if err := c.Lock(0); err == nil {
		t.Fatal("Lock on unreserved cache did not return an error")
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	bad := smallCfg(false)
	bad.Ways = 3 // sets would not be a power of two
	if _, err := New(bad, 1, 0); err == nil {
		t.Fatal("New accepted a non-power-of-two set count")
	}
	if _, err := New(smallCfg(false), 1, 5); err == nil {
		t.Fatal("New accepted reserved ways exceeding associativity")
	}
}

func TestRandomizedIndexDiffersFromDirect(t *testing.T) {
	direct := mustNew(t, smallCfg(false), 7, 0)
	rand1 := mustNew(t, smallCfg(true), 7, 0)
	rand2 := mustNew(t, smallCfg(true), 8, 0)
	differ12 := false
	for i := uint64(0); i < 64; i++ {
		la := i
		if rand1.index(la) != rand2.index(la) {
			differ12 = true
		}
		_ = direct
	}
	if !differ12 {
		t.Fatal("different keys produced identical randomized mappings")
	}
}

func TestFlush(t *testing.T) {
	c := mustNew(t, smallCfg(false), 1, 0)
	c.Access(0, true)
	c.Access(64, false)
	if d := c.Flush(); d != 1 {
		t.Fatalf("flush dropped %d dirty lines, want 1", d)
	}
	if probe(c, 0) || probe(c, 64) {
		t.Fatal("lines survived flush")
	}
}

func TestOccupancy(t *testing.T) {
	c := mustNew(t, smallCfg(false), 1, 0)
	if occupancy(c) != 0 {
		t.Fatal("empty cache occupancy must be 0")
	}
	for i := uint64(0); i < 64; i++ {
		c.Access(i*64, false)
	}
	if occupancy(c) != 1 {
		t.Fatalf("full cache occupancy = %v", occupancy(c))
	}
}

// Property: after accessing an address, an immediate probe always hits,
// for both direct and randomized indexing.
func TestAccessThenProbeProperty(t *testing.T) {
	direct := mustNew(t, smallCfg(false), 3, 0)
	random := mustNew(t, smallCfg(true), 3, 0)
	f := func(addr uint64) bool {
		direct.Access(addr, false)
		random.Access(addr, false)
		return probe(direct, addr) && probe(random, addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: total lines valid never exceeds capacity regardless of the
// access pattern.
func TestCapacityInvariant(t *testing.T) {
	c := mustNew(t, smallCfg(true), 9, 0)
	f := func(addrs []uint64) bool {
		for _, a := range addrs {
			c.Access(a, a%3 == 0)
		}
		return occupancy(c) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHitRateAndReset(t *testing.T) {
	c := mustNew(t, smallCfg(false), 1, 0)
	c.Access(0, false)
	c.Access(0, false)
	r := telemetry.NewRegistry()
	c.RegisterMetrics(r, "c")
	if hr := r.Snapshot().HitRate("c"); hr != 0.5 {
		t.Fatalf("hit rate %v", hr)
	}
	r.Reset()
	if c.Hits.Value() != 0 || c.Misses.Value() != 0 {
		t.Fatal("registry reset did not clear counters")
	}
	if !probe(c, 0) {
		t.Fatal("registry reset cleared contents")
	}
}

// refCache is the stamp-based LRU the recency word replaced, kept as the
// reference model: every access stamps its way with a strictly increasing
// clock, and a fill takes the first invalid non-reserved way, else the
// non-reserved way with the smallest stamp. Reserved ways hold locked lines
// only and their stamps are never compared.
type refCache struct {
	index     func(uint64) uint64
	lineShift uint
	reserved  int
	latency   int
	tick      uint64
	tags      [][]uint64
	stamp     [][]uint64
	dirty     [][]bool

	hits, misses, evictions uint64
}

func newRefCache(c *Cache) *refCache {
	r := &refCache{index: c.index, lineShift: c.lineShift, reserved: c.reserved, latency: c.cfg.HitLatency}
	for s := 0; s <= int(c.setMask); s++ {
		r.tags = append(r.tags, make([]uint64, c.ways))
		r.stamp = append(r.stamp, make([]uint64, c.ways))
		r.dirty = append(r.dirty, make([]bool, c.ways))
	}
	r.Flush()
	return r
}

func (r *refCache) Access(addr uint64, write bool) Result {
	r.tick++
	line := addr >> r.lineShift
	s := r.index(line)
	tags, stamp, dirty := r.tags[s], r.stamp[s], r.dirty[s]
	res := Result{Latency: r.latency}
	for i, t := range tags {
		if t == line {
			stamp[i] = r.tick
			dirty[i] = dirty[i] || write
			res.Hit = true
			r.hits++
			return res
		}
	}
	r.misses++
	victim := r.reserved
	for i := r.reserved; i < len(tags); i++ {
		if tags[i] == invalidTag {
			victim = i
			break
		}
		if stamp[i] < stamp[victim] {
			victim = i
		}
	}
	if tags[victim] != invalidTag {
		res.Evicted = true
		r.evictions++
		if dirty[victim] {
			res.EvictedDirty = true
			res.WritebackAddr = tags[victim] << r.lineShift
		}
	}
	tags[victim], stamp[victim], dirty[victim] = line, r.tick, write
	return res
}

func (r *refCache) Invalidate(addr uint64) (present, dirty bool) {
	line := addr >> r.lineShift
	s := r.index(line)
	for i, t := range r.tags[s] {
		if t == line {
			present, dirty = true, r.dirty[s][i]
			r.tags[s][i], r.stamp[s][i], r.dirty[s][i] = invalidTag, 0, false
			return
		}
	}
	return
}

func (r *refCache) Lock(addr uint64) error {
	if r.reserved == 0 {
		return errors.New("no reserved ways")
	}
	r.tick++
	line := addr >> r.lineShift
	tags := r.tags[r.index(line)]
	for i := 0; i < r.reserved; i++ {
		if tags[i] == line {
			return nil
		}
	}
	for i := 0; i < r.reserved; i++ {
		if tags[i] == invalidTag {
			tags[i] = line
			r.stamp[r.index(line)][i] = r.tick
			return nil
		}
	}
	return errors.New("reserved ways exhausted")
}

func (r *refCache) Flush() int {
	n := 0
	for s := range r.tags {
		for i := range r.tags[s] {
			if r.tags[s][i] != invalidTag && r.dirty[s][i] {
				n++
			}
			r.tags[s][i], r.stamp[s][i], r.dirty[s][i] = invalidTag, 0, false
		}
	}
	return n
}

// checkAgainstReference builds a cache of the given shape (4 sets) and the
// reference model, drives both with the operation stream ops — two bytes
// per operation, kind then line — and fails on the first diverging result
// or counter.
func checkAgainstReference(t *testing.T, ways, reserved int, randomized bool, ops []byte) {
	t.Helper()
	cfg := config.CacheConfig{SizeBytes: 4 * ways * 64, Ways: ways, LineBytes: 64, HitLatency: 3, Randomized: randomized}
	c := mustNew(t, cfg, 11, reserved)
	ref := newRefCache(c)
	// Lines span three times the capacity so hits, conflict misses and
	// evictions all occur; the byte offset exercises line truncation.
	lines := uint64(3 * 4 * ways)
	for k := 0; k+1 < len(ops); k += 2 {
		kind, addr := ops[k], uint64(ops[k+1])%lines*64+uint64(ops[k])%64
		switch {
		case kind < 200:
			write := kind&1 == 1
			if got, want := c.Access(addr, write), ref.Access(addr, write); got != want {
				t.Fatalf("op %d Access(%#x, %v) = %+v, reference %+v", k/2, addr, write, got, want)
			}
		case kind < 230:
			gp, gd := c.Invalidate(addr)
			if wp, wd := ref.Invalidate(addr); gp != wp || gd != wd {
				t.Fatalf("op %d Invalidate(%#x) = %v,%v, reference %v,%v", k/2, addr, gp, gd, wp, wd)
			}
		case kind < 254:
			if got, want := c.Lock(addr), ref.Lock(addr); (got == nil) != (want == nil) {
				t.Fatalf("op %d Lock(%#x) = %v, reference %v", k/2, addr, got, want)
			}
		default:
			if got, want := c.Flush(), ref.Flush(); got != want {
				t.Fatalf("op %d Flush = %d, reference %d", k/2, got, want)
			}
		}
		if c.Hits.Value() != ref.hits || c.Misses.Value() != ref.misses || c.Evictions.Value() != ref.evictions {
			t.Fatalf("op %d counters %d/%d/%d, reference %d/%d/%d", k/2,
				c.Hits.Value(), c.Misses.Value(), c.Evictions.Value(), ref.hits, ref.misses, ref.evictions)
		}
	}
}

// TestCacheMatchesReference checks the recency-word LRU against the stamp
// model over 4-, 8- and 16-way caches with 0–2 reserved ways, direct and
// randomized indexing.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, ways := range []int{4, 8, 16} {
		for reserved := 0; reserved <= 2; reserved++ {
			for _, randomized := range []bool{false, true} {
				ops := make([]byte, 40000)
				for i := range ops {
					ops[i] = byte(rng.Uint32())
				}
				checkAgainstReference(t, ways, reserved, randomized, ops)
			}
		}
	}
}

// FuzzCacheMatchesReference runs the same differential check on fuzzed
// shapes and operation streams: the first byte picks the associativity,
// the reserved ways and the indexing.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 1, 210, 2, 240, 7, 255, 0})
	f.Add([]byte{0x17, 201, 9, 0, 9, 1, 9, 3, 9, 5, 9, 7, 9, 250, 9, 0, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shape := data[0]
		ways := []int{4, 8, 16}[int(shape&3)%3]
		checkAgainstReference(t, ways, int(shape>>2&3)%3, shape&16 != 0, data[1:])
	})
}
