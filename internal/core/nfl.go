package core

import (
	"sort"

	"ivleague/internal/layout"
	"ivleague/internal/stats"
)

// nflEntry is one in-memory NFL entry: the tracked TreeLing node (a full
// node-block address tag, here packed as tl<<24|node) and its availability
// vector (bit i set = slot i attachable). tag < 0 marks an unused entry
// position (padding in a region's last block).
type nflEntry struct {
	tag   int64
	next  int32 // ordinal of the next entry with the same tag, -1 if none
	avail uint8
}

func packTag(tl, node int) int64 { return int64(tl)<<24 | int64(node) }

func unpackTag(tag int64) (tl, node int) {
	return int(tag >> 24), int(tag & (1<<24 - 1))
}

// nflRegion is the in-memory NFL storage of one assigned TreeLing: one
// entry per tracked node, grouped into 64-byte blocks.
type nflRegion struct {
	tl        int
	entries   []nflEntry
	nBlocks   int
	blockBase int   // offset within the TreeLing's NFL address range
	first     int32 // space-wide ordinal of entries[0]
}

// nflSpace is a domain's Node Free-List: the concatenation of the NFL
// regions of its assigned TreeLings, with a single allocation frontier
// (the head register). The paper's invariant — every block before the
// frontier is fully mapped — makes allocation O(1); deallocations re-track
// freed slots at the frontier (tag match, entry repurposing, or a one-step
// head rewind), so freed capacity is reused immediately.
//
// The entries are indexed by tag. Numbering them consecutively in
// (region, entry) order gives each an ordinal; heads[tl][node] is the
// ordinal of the first entry tagged (tl, node), -1 if none, and each
// entry's next continues that chain in ordinal order. The rows grow to
// the highest TreeLing and node seen, so a lookup is two slice indexes.
// Tags change only in addRegion, release's repurposing and the image
// restore, each of which relinks the entries it writes. The index is built
// on the first clearSlotAnywhere, so spaces that never consume designated
// slots (Basic mode) never pay for it.
type nflSpace struct {
	epb     int
	regions []*nflRegion
	fRegion int // frontier region index
	fBlock  int // frontier block within that region
	indexed bool
	heads   [][]int32
}

func newNFLSpace(epb int) *nflSpace { return &nflSpace{epb: epb} }

// at returns the entry with the given ordinal.
func (s *nflSpace) at(ord int32) *nflEntry {
	ri := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].first > ord }) - 1
	r := s.regions[ri]
	return &r.entries[ord-r.first]
}

// head returns the cell holding the ordinal of the first entry tagged tag.
// An absent cell is created (as -1) when grow is set, else nil is returned.
func (s *nflSpace) head(tag int64, grow bool) *int32 {
	tl, node := unpackTag(tag)
	if uint(tl) >= uint(len(s.heads)) || node >= len(s.heads[tl]) {
		if !grow {
			return nil
		}
		if tl >= len(s.heads) {
			//ivlint:allow hotalloc — one row per TreeLing the space tracks; grows on assignment, then quiesces
			s.heads = append(s.heads, make([][]int32, tl+1-len(s.heads))...)
		}
		h := s.heads[tl]
		n := len(h)
		h = append(h, make([]int32, node+1-n)...)
		for i := n; i <= node; i++ {
			h[i] = -1
		}
		s.heads[tl] = h
	}
	return &s.heads[tl][node]
}

// link adds the entry with ordinal ord to its tag's chain. Padding
// (tag < 0) is not indexed.
func (s *nflSpace) link(ord int32) {
	if !s.indexed {
		return
	}
	e := s.at(ord)
	if e.tag < 0 {
		return
	}
	p := s.head(e.tag, true)
	for *p >= 0 && *p < ord {
		p = &s.at(*p).next
	}
	e.next, *p = *p, ord
}

// unlink removes the entry with ordinal ord from its tag's chain.
func (s *nflSpace) unlink(ord int32) {
	if !s.indexed {
		return
	}
	e := s.at(ord)
	if e.tag < 0 {
		return
	}
	p := s.head(e.tag, false)
	for *p != ord {
		p = &s.at(*p).next
	}
	*p = e.next
}

// appendRegion numbers the entries of r, appends it and, once the index
// is built, links them.
func (s *nflSpace) appendRegion(r *nflRegion) {
	if n := len(s.regions); n > 0 {
		last := s.regions[n-1]
		r.first = last.first + int32(len(last.entries))
	}
	//ivlint:allow hotalloc — NFL region materialization: one per frontier advance, bounded by tracked nodes
	s.regions = append(s.regions, r)
	s.linkRegion(r)
}

// linkRegion links r's entries last to first: tracked nodes ascend, so
// each TreeLing's heads row is sized once, by its highest node.
func (s *nflSpace) linkRegion(r *nflRegion) {
	for i := len(r.entries) - 1; i >= 0; i-- {
		s.link(r.first + int32(i))
	}
}

// addRegion appends the NFL region of a newly assigned TreeLing tracking
// the given node indices, each with the initial availability initAvail.
func (s *nflSpace) addRegion(tl int, tracked []int32, initAvail uint8, blockBase int) *nflRegion {
	nBlocks := (len(tracked) + s.epb - 1) / s.epb
	r := &nflRegion{
		tl:        tl,
		entries:   make([]nflEntry, nBlocks*s.epb),
		nBlocks:   nBlocks,
		blockBase: blockBase,
	}
	for i := range r.entries {
		if i < len(tracked) {
			r.entries[i] = nflEntry{tag: packTag(tl, int(tracked[i])), avail: initAvail}
		} else {
			r.entries[i] = nflEntry{tag: -1}
		}
	}
	s.appendRegion(r)
	return r
}

// exhausted reports whether the frontier has run past the last block.
func (s *nflSpace) exhausted() bool {
	return s.fRegion >= len(s.regions)
}

// frontier returns the region and block the head register points at.
func (s *nflSpace) frontier() (*nflRegion, int) {
	return s.regions[s.fRegion], s.fBlock
}

// advance moves the frontier to the next block (crossing into the next
// region when the current one ends).
func (s *nflSpace) advance() {
	s.fBlock++
	if s.fBlock >= s.regions[s.fRegion].nBlocks {
		s.fRegion++
		s.fBlock = 0
	}
}

// rewind moves the frontier one block back (crossing into the previous
// TreeLing's NFL when at a region's first block, per Section VI-C1). It
// reports whether a previous block exists.
func (s *nflSpace) rewind() bool {
	if s.fBlock > 0 {
		s.fBlock--
		return true
	}
	if s.fRegion > 0 {
		// After the decrement fRegion is at most len(regions)-1 (it never
		// exceeds len(regions), even when exhausted), so the target region
		// always exists.
		s.fRegion--
		s.fBlock = s.regions[s.fRegion].nBlocks - 1
		return true
	}
	return false
}

// clampedFrontier returns the frontier clamped to the last existing block
// (for deallocations arriving after exhaustion).
func (s *nflSpace) clampedFrontier() (region, block int) {
	if s.fRegion < len(s.regions) {
		return s.fRegion, s.fBlock
	}
	last := len(s.regions) - 1
	return last, s.regions[last].nBlocks - 1
}

// block returns the entry slice of block b of region r.
func (s *nflSpace) block(r *nflRegion, b int) []nflEntry {
	return r.entries[b*s.epb : (b+1)*s.epb]
}

// peek returns the tag of the first entry with an attachable slot in the
// given block, without claiming it.
func (s *nflSpace) peek(r *nflRegion, b int) (tag int64, ok bool) {
	for _, e := range s.block(r, b) {
		if e.avail != 0 {
			return e.tag, true
		}
	}
	return 0, false
}

// take claims the lowest available slot of the entry tagged tag in the
// given block, returning ok=false if none is left.
func (s *nflSpace) take(r *nflRegion, b int, tag int64) (slot int, ok bool) {
	es := s.block(r, b)
	for i := range es {
		if es[i].tag == tag && es[i].avail != 0 {
			bit := 0
			for es[i].avail&(1<<uint(bit)) == 0 {
				bit++
			}
			es[i].avail &^= 1 << uint(bit)
			return bit, true
		}
	}
	return 0, false
}

// release records slot of tag as attachable in the given block using the
// in-place update rules of Figure 8d–e: tag match first, then repurposing
// a fully-assigned (or padding) entry. Reports whether it succeeded.
func (s *nflSpace) release(r *nflRegion, b int, tag int64, slot int) bool {
	es := s.block(r, b)
	for i := range es {
		if es[i].tag == tag {
			es[i].avail |= 1 << uint(slot)
			return true
		}
	}
	for i := range es {
		if es[i].avail == 0 {
			ord := r.first + int32(b*s.epb+i)
			s.unlink(ord)
			es[i] = nflEntry{tag: tag, avail: 1 << uint(slot)}
			s.link(ord)
			return true
		}
	}
	return false
}

// clearSlotAnywhere removes a specific (tag, slot) from availability
// wherever it is tracked (used by Invert conversion and Pro reservation,
// which consume designated slots): the first entry in (region, entry)
// order carrying tag with the slot's bit set. Reports whether it was found.
func (s *nflSpace) clearSlotAnywhere(tag int64, slot int) bool {
	if !s.indexed {
		// Linking from the last region back makes every link a head
		// insert.
		s.indexed = true
		for ri := len(s.regions) - 1; ri >= 0; ri-- {
			s.linkRegion(s.regions[ri])
		}
	}
	p := s.head(tag, false)
	if p == nil {
		return false
	}
	for ord := *p; ord >= 0; {
		e := s.at(ord)
		if e.avail&(1<<uint(slot)) != 0 {
			e.avail &^= 1 << uint(slot)
			return true
		}
		ord = e.next
	}
	return false
}

// trackedSlotCapacity returns arity × the number of real (non-padding)
// entries, the denominator of the utilization metric.
func (s *nflSpace) trackedSlotCapacity(arity int) int {
	n := 0
	for _, r := range s.regions {
		for _, e := range r.entries {
			if e.tag >= 0 {
				n += arity
			}
		}
	}
	return n
}

// NFLB is the per-domain on-chip NFL buffer: a tiny CAM caching the most
// recently used NFL blocks. Misses cost an NFL memory read; dirty
// evictions cost a write-back.
type NFLB struct {
	entries []nflbEntry
	tick    uint64

	Hits   stats.Counter
	Misses stats.Counter
}

type nflbEntry struct {
	tl      int
	block   int
	lastUse uint64
	valid   bool
	dirty   bool
}

// newNFLB creates a buffer with n entries.
func newNFLB(n int) *NFLB {
	return &NFLB{entries: make([]nflbEntry, n)}
}

// Access looks up NFL block (tl, block), filling on a miss; the miss read
// and any dirty-eviction write-back are appended to ops using the layout's
// NFL block addresses. write marks the block dirty.
func (b *NFLB) Access(lay *layout.Layout, tl, block int, write bool, ops *OpList) (hit bool) {
	b.tick++
	victim := 0
	for i := range b.entries {
		e := &b.entries[i]
		if e.valid && e.tl == tl && e.block == block {
			e.lastUse = b.tick
			if write {
				e.dirty = true
			}
			b.Hits.Inc()
			return true
		}
		if !b.entries[victim].valid {
			continue
		}
		if !e.valid || e.lastUse < b.entries[victim].lastUse {
			victim = i
		}
	}
	b.Misses.Inc()
	v := &b.entries[victim]
	if v.valid && v.dirty {
		ops.Write(lay.NFLBlockAddr(v.tl, v.block))
	}
	ops.Read(lay.NFLBlockAddr(tl, block))
	*v = nflbEntry{tl: tl, block: block, lastUse: b.tick, valid: true, dirty: write}
	return false
}

// FlushDomain writes back and drops every entry (domain teardown).
func (b *NFLB) FlushDomain(lay *layout.Layout, ops *OpList) {
	for i := range b.entries {
		if b.entries[i].valid && b.entries[i].dirty {
			ops.Write(lay.NFLBlockAddr(b.entries[i].tl, b.entries[i].block))
		}
		b.entries[i] = nflbEntry{}
	}
}
