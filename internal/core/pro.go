package core

import (
	"math/bits"

	"ivleague/internal/layout"
)

// hotTracker is the per-domain n-entry access-frequency table integrated
// into the memory controller (Figure 14a). Every call is O(1) in n, and
// its decisions are those of a linear scan over the entries array:
//
//   - index is an open-addressed, linearly probed key → entry table, sized
//     to at least twice n so a probe ends at an empty cell;
//   - the valid entries form the prefix [0,used), because an insert always
//     takes the first invalid entry and entries never invalidate;
//   - the valid entries are grouped by counter value into buckets, each a
//     bitset over entry positions, listed in ascending count order. The
//     head bucket's lowest set bit is the lowest-index entry with the
//     smallest counter, the one "replace the entry with the smallest
//     counter" picks. At most n counts are live at once, so n+1 buckets
//     suffice whatever the counter width.
type hotTracker struct {
	entries  []hotEntry
	used     int
	index    []int32 // entry position + 1 per cell; 0 = empty
	shift    uint    // 64 - log2(len(index))
	in       []int32 // entry position → its bucket
	buckets  []hotBucket
	bits     []uint64 // bucket b's members: bits[b*words : (b+1)*words]
	words    int
	head     int32  // bucket with the smallest count, -1 when empty
	spare    int32  // free buckets, chained through next
	max      uint32 // counter saturation value
	thresh   uint32
	interval uint64
	accesses uint64
}

type hotEntry struct {
	pfn   uint64
	count uint32
	valid bool
}

// hotBucket is one live counter value: its member count and its neighbours
// in ascending count order (-1 at either end).
type hotBucket struct {
	count      uint32
	size       int32
	prev, next int32
}

func newHotTracker(n, counterBits int, thresh uint32, interval uint64) *hotTracker {
	if n <= 0 {
		panic("core: hot tracker needs at least one entry")
	}
	cells := 2
	for cells < 2*n {
		cells *= 2
	}
	t := &hotTracker{
		entries:  make([]hotEntry, n),
		index:    make([]int32, cells),
		shift:    64 - uint(bits.TrailingZeros(uint(cells))),
		in:       make([]int32, n),
		buckets:  make([]hotBucket, n+1),
		words:    (n + 63) / 64,
		max:      1<<uint(counterBits) - 1,
		thresh:   thresh,
		interval: interval,
	}
	t.bits = make([]uint64, (n+1)*t.words)
	t.clearCounts()
	return t
}

// cell returns key's home cell in the index.
func (t *hotTracker) cell(key uint64) int { return int(key * 0x9e3779b97f4a7c15 >> t.shift) }

// find returns the index of the valid entry tracking key, or -1.
func (t *hotTracker) find(key uint64) int {
	for h := t.cell(key); ; h = (h + 1) & (len(t.index) - 1) {
		p := t.index[h]
		if p == 0 {
			return -1
		}
		if t.entries[p-1].pfn == key {
			return int(p - 1)
		}
	}
}

// link records entry i's key in the index.
func (t *hotTracker) link(i int) {
	h := t.cell(t.entries[i].pfn)
	for t.index[h] != 0 {
		h = (h + 1) & (len(t.index) - 1)
	}
	t.index[h] = int32(i + 1)
}

// unlink removes entry i's key from the index, shifting later cells of its
// probe run back so every remaining key stays reachable from its home.
func (t *hotTracker) unlink(i int) {
	m := len(t.index) - 1
	h := t.cell(t.entries[i].pfn)
	for t.index[h] != int32(i+1) {
		h = (h + 1) & m
	}
	for j := h; ; {
		t.index[h] = 0
		for {
			j = (j + 1) & m
			p := t.index[j]
			if p == 0 {
				return
			}
			// The key at j may fill the hole at h unless its home lies
			// cyclically in (h, j].
			if home := t.cell(t.entries[p-1].pfn); (j-home)&m >= (j-h)&m {
				t.index[h] = p
				h = j
				break
			}
		}
	}
}

// clearCounts zeroes every counter (construction and the periodic clear):
// all buckets return to the free list and the valid entries join one
// count-0 bucket.
func (t *hotTracker) clearCounts() {
	clear(t.bits)
	for b := range t.buckets {
		t.buckets[b].next = int32(b + 1)
	}
	t.buckets[len(t.buckets)-1].next = -1
	t.head, t.spare = -1, 0
	for i := 0; i < t.used; i++ {
		t.in[i] = -1
		t.setCount(i, 0, -1)
	}
}

// bucketFor returns the bucket of count c, linking a free one into the
// list when c has none. The search starts after bucket from, whose count
// is below c, or at the head when from is -1; every caller passes a
// neighbour of c, so it takes at most two steps.
func (t *hotTracker) bucketFor(c uint32, from int32) int32 {
	prev, next := from, t.head
	if from >= 0 {
		next = t.buckets[from].next
	}
	for next >= 0 && t.buckets[next].count < c {
		prev, next = next, t.buckets[next].next
	}
	if next >= 0 && t.buckets[next].count == c {
		return next
	}
	b := t.spare
	t.spare = t.buckets[b].next
	t.buckets[b] = hotBucket{count: c, prev: prev, next: next}
	if prev >= 0 {
		t.buckets[prev].next = b
	} else {
		t.head = b
	}
	if next >= 0 {
		t.buckets[next].prev = b
	}
	return b
}

// setCount sets entry i's counter to c, moving it to c's bucket (found
// from bucket from, as in bucketFor) and freeing its old bucket if that
// empties.
func (t *hotTracker) setCount(i int, c uint32, from int32) {
	b := t.bucketFor(c, from)
	if old := t.in[i]; old >= 0 {
		t.bits[int(old)*t.words+i>>6] &^= 1 << uint(i&63)
		k := &t.buckets[old]
		if k.size--; k.size == 0 {
			if k.prev >= 0 {
				t.buckets[k.prev].next = k.next
			} else {
				t.head = k.next
			}
			if k.next >= 0 {
				t.buckets[k.next].prev = k.prev
			}
			k.next, t.spare = t.spare, old
		}
	}
	t.bits[int(b)*t.words+i>>6] |= 1 << uint(i&63)
	t.buckets[b].size++
	t.in[i] = b
	t.entries[i].count = c
}

// minEntry returns the lowest-index entry with the smallest counter; the
// table must hold at least one valid entry.
func (t *hotTracker) minEntry() int {
	base := int(t.head) * t.words
	w := 0
	for t.bits[base+w] == 0 {
		w++
	}
	return w<<6 + bits.TrailingZeros64(t.bits[base+w])
}

// observe records an access to key and reports whether key is tracked
// with its counter at or above the hot threshold afterwards.
func (t *hotTracker) observe(key uint64) bool {
	t.accesses++
	if t.interval > 0 && t.accesses%t.interval == 0 {
		// Periodic counter clear (Section VII-B): hot pages must keep
		// earning their residency.
		t.clearCounts()
	}
	if i := t.find(key); i >= 0 {
		if c := t.entries[i].count; c < t.max {
			t.setCount(i, c+1, t.in[i])
		}
		return t.entries[i].count >= t.thresh
	}
	// Insert: first invalid entry, else Misra-Gries-style replacement —
	// decrement the smallest counter and only take its entry once it
	// reaches zero, so recurring warm pages survive one-shot traffic.
	// (A "more advanced hotpage detection mechanism" per Section VII-B.)
	i := t.used
	if i < len(t.entries) {
		t.used++
		t.entries[i] = hotEntry{pfn: key, valid: true}
		t.in[i] = -1
	} else {
		i = t.minEntry()
		if c := t.entries[i].count; c > 1 {
			t.setCount(i, c-1, -1)
			return false // newcomer not admitted this time
		}
		t.unlink(i)
		t.entries[i].pfn = key
	}
	t.link(i)
	if t.entries[i].count != 1 {
		t.setCount(i, 1, -1)
	}
	return 1 >= t.thresh
}

// atThreshold reports whether key's counter has reached the hot threshold.
func (t *hotTracker) atThreshold(key uint64) bool {
	if i := t.find(key); i >= 0 {
		return t.entries[i].count >= t.thresh
	}
	return false
}

// hotPageTable maps PFN → τhot slot as a grown-dense slice: the frame
// allocator hands out PFNs densely from the bottom of the data region, so
// a pfn-indexed slice with an InvalidSlot sentinel replaces the old
// map[uint64]SlotID without its per-migration heap and hash traffic.
type hotPageTable struct {
	slots []SlotID // pfn-indexed; InvalidSlot = not resident
	n     int
}

// get returns pfn's τhot slot, if resident.
func (h *hotPageTable) get(pfn layout.PFN) (SlotID, bool) {
	if uint64(pfn) >= uint64(len(h.slots)) || h.slots[pfn] == InvalidSlot {
		return InvalidSlot, false
	}
	return h.slots[pfn], true
}

// set records pfn as resident in slot s, growing the table on demand.
func (h *hotPageTable) set(pfn layout.PFN, s SlotID) {
	for uint64(len(h.slots)) <= uint64(pfn) {
		//ivlint:allow hotalloc — hot-page table grows to the domain's PFN range, then quiesces
		h.slots = append(h.slots, InvalidSlot)
	}
	if h.slots[pfn] == InvalidSlot {
		h.n++
	}
	h.slots[pfn] = s
}

// del drops pfn's residency record, if any.
func (h *hotPageTable) del(pfn layout.PFN) {
	if uint64(pfn) < uint64(len(h.slots)) && h.slots[pfn] != InvalidSlot {
		h.slots[pfn] = InvalidSlot
		h.n--
	}
}

// forEach visits the resident pages in ascending PFN order — the canonical
// enumeration the state digest and the persist image rely on.
func (h *hotPageTable) forEach(fn func(pfn layout.PFN, s SlotID)) {
	for pfn, s := range h.slots {
		if s != InvalidSlot {
			fn(layout.PFN(pfn), s)
		}
	}
}

// hotQueueLen returns the number of pages in the migration FIFO.
func (d *Domain) hotQueueLen() int { return len(d.hotOrder) - d.hotHead }

// hotQueuePush appends pfn to the migration FIFO, compacting the backing
// array in place (no allocation) when the popped head space can be reused.
func (d *Domain) hotQueuePush(pfn layout.PFN) {
	if len(d.hotOrder) == cap(d.hotOrder) && d.hotHead > 0 {
		n := copy(d.hotOrder, d.hotOrder[d.hotHead:])
		d.hotOrder = d.hotOrder[:n]
		d.hotHead = 0
	}
	//ivlint:allow hotalloc — FIFO ring compacts in place above; capacity stops growing at the τhot size
	d.hotOrder = append(d.hotOrder, pfn)
}

// hotQueuePop removes and returns the FIFO head.
func (d *Domain) hotQueuePop() layout.PFN {
	pfn := d.hotOrder[d.hotHead]
	d.hotHead++
	if d.hotHead == len(d.hotOrder) {
		d.hotOrder = d.hotOrder[:0]
		d.hotHead = 0
	}
	return pfn
}

// OnAccess feeds the IvLeague-Pro hotpage machinery with one page access.
// When the page becomes hot it is migrated into the τhot region; when a
// tracked page is evicted while resident in τhot it is migrated back to
// the regular region. The page's (possibly new) verification slot is
// returned; migrated reports whether the caller must refresh the LMM/PTE.
// For non-Pro modes this is a no-op.
//
//ivlint:hotpath
func (c *Controller) OnAccess(domainID int, pfn layout.PFN, slot SlotID, ops *OpList) (SlotID, bool) {
	if c.mode != ModePro {
		return slot, false
	}
	d := c.domains[domainID]
	if d == nil {
		return slot, false
	}
	// Region-granular tracking: the tracker counts accesses per region;
	// once a region is hot, each of its pages migrates on its next access.
	region := uint64(pfn) >> uint(c.cfg.HotRegionPagesLog2)
	hot := d.hot.observe(region)
	d.sinceMig++
	// The migration engine is rate-limited (one relocation per several
	// memory-controller accesses) so τhot residency favours genuinely
	// recurring regions instead of thrashing on one-shot traffic.
	if hot && d.sinceMig >= 8 {
		if _, already := d.hotPages.get(pfn); !already && !c.isHotNode(slot.Node()) {
			if ns, ok := c.migrateToHot(d, pfn, slot, ops); ok {
				d.sinceMig = 0
				return ns, true
			}
		}
	}
	return slot, false
}

// reclaimHot migrates the oldest τhot resident that is no longer tracked
// back to the regular region, freeing a hot slot. Reclamation is lazy —
// pages stay in τhot after leaving the tracker until the region fills —
// which keeps τhot near capacity and maximizes the hotpage acceleration.
func (c *Controller) reclaimHot(d *Domain, ops *OpList) bool {
	requeued := 0
	for d.hotQueueLen() > 0 && requeued <= d.hotQueueLen() {
		pfn := d.hotQueuePop()
		slot, ok := d.hotPages.get(pfn)
		if !ok {
			continue // freed or already reclaimed
		}
		// A ρ-conversion may have relocated the resident's hash since it
		// migrated (the parents of the topmost regular nodes are τhot
		// nodes, so claiming such a node converts a hot slot). Chase the
		// flags before touching the slot: moving from the recorded slot
		// would copy the child-node hash and zero a live parent link.
		if rs, changed := c.Resolve(d.id, slot); changed {
			if !c.isHotNode(rs.Node()) {
				// The relocation already pushed the page out of τhot;
				// there is nothing to migrate back, just drop the record.
				d.hotPages.del(pfn)
				continue
			}
			d.hotPages.set(pfn, rs)
			slot = rs
		}
		if d.hot.atThreshold(uint64(pfn) >> uint(c.cfg.HotRegionPagesLog2)) {
			// Its region is still actively hot: keep it resident.
			d.hotQueuePush(pfn)
			requeued++
			continue
		}
		c.migrateBack(d, pfn, slot, ops)
		return true
	}
	return false
}

// migrateToHot moves a page's verification hash into the τhot region:
// find a reserved slot via the hot NFL (trying the page's own TreeLing
// first), copy the hash (one node read + one node write), release the old
// slot through the regular NFL path, and update the LMM.
func (c *Controller) migrateToHot(d *Domain, pfn layout.PFN, old SlotID, ops *OpList) (SlotID, bool) {
	for attempt := 0; attempt < 2; attempt++ {
		// Two passes over the hot regions: the page's own TreeLing first,
		// then the others in assignment order.
		for pass := 0; pass < 2; pass++ {
			for _, hr := range d.hotSpace.regions {
				if (hr.tl == old.TreeLing()) != (pass == 0) {
					continue
				}
				for b := 0; b < hr.nBlocks; b++ {
					tag, ok := d.hotSpace.peek(hr, b)
					if !ok {
						continue
					}
					d.nflb.Access(c.lay, hr.tl, hr.blockBase+b, false, ops)
					sl, ok := d.hotSpace.take(hr, b, tag)
					if !ok {
						continue
					}
					d.nflb.Access(c.lay, hr.tl, hr.blockBase+b, true, ops)
					_, node := unpackTag(tag)
					ns := MakeSlot(hr.tl, node, sl)
					c.moveHash(d, old, ns, ops)
					c.clearOccupied(d, old)
					c.releaseRegular(d, old, ops) // the regular slot becomes free
					c.markOccupied(d, ns)
					d.hotPages.set(pfn, ns)
					d.hotQueuePush(pfn)
					c.Migrations.Inc()
					if c.leaf != nil {
						c.leaf.UpdateLeaf(d.id, pfn, ns)
					}
					return ns, true
				}
			}
		}
		// τhot full: lazily reclaim an inactive resident and retry.
		if !c.reclaimHot(d, ops) {
			break
		}
	}
	return InvalidSlot, false // τhot saturated with actively hot pages
}

// migrateBack moves an inactive hotpage out of τhot into a regular slot.
func (c *Controller) migrateBack(d *Domain, pfn layout.PFN, hotSlot SlotID, ops *OpList) {
	d.hotPages.del(pfn)
	ns, err := c.allocSlot(d, ops)
	if err != nil {
		// No regular slot available: leave the page in τhot (it keeps
		// verifying correctly; τhot pressure persists).
		d.hotPages.set(pfn, hotSlot)
		return
	}
	c.moveHash(d, hotSlot, ns, ops)
	c.markOccupied(d, ns)
	c.clearOccupied(d, hotSlot)
	c.releaseHot(d, hotSlot, ops)
	c.MigrationsBack.Inc()
	if c.leaf != nil {
		c.leaf.UpdateLeaf(d.id, pfn, ns)
	}
}

// moveHash copies the verification hash from slot a to slot b (one node
// read, one node write) and clears a in the functional forest.
func (c *Controller) moveHash(d *Domain, a, b SlotID, ops *OpList) {
	ops.Read(c.lay.TreeLingNodeAddr(a.TreeLing(), a.Node()))
	ops.WriteNoFetch(c.lay.TreeLingNodeAddr(b.TreeLing(), b.Node()))
	if c.forest != nil {
		h := c.forest.Slot(a.TreeLing(), a.Node(), a.Slot())
		c.forest.SetSlot(b.TreeLing(), b.Node(), b.Slot(), h)
		c.forest.SetSlot(a.TreeLing(), a.Node(), a.Slot(), 0)
	}
}

// HotResident returns how many pages of the domain currently live in τhot.
func (c *Controller) HotResident(domainID int) int {
	if d := c.domains[domainID]; d != nil && d.hotPages != nil {
		return d.hotPages.n
	}
	return 0
}

// IsHotSlot reports whether slot lies in the τhot region.
func (c *Controller) IsHotSlot(slot SlotID) bool { return c.isHotNode(slot.Node()) }
