package core

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"ivleague/internal/layout"
	"ivleague/internal/stats"
)

func testSpace(tl int, nodes int) *nflSpace {
	s := newNFLSpace(8)
	tracked := make([]int32, nodes)
	for i := range tracked {
		tracked[i] = int32(i + 100)
	}
	s.addRegion(tl, tracked, 0xff, 0)
	return s
}

// freeSlots returns the number of attachable slots tracked in the space.
func freeSlots(s *nflSpace) int {
	n := 0
	for _, r := range s.regions {
		for _, e := range r.entries {
			a := e.avail
			for a != 0 {
				a &= a - 1
				n++
			}
		}
	}
	return n
}

// nflbHitRate returns the buffer's hit rate so far.
func nflbHitRate(b *NFLB) float64 {
	return stats.Ratio(b.Hits.Value(), b.Hits.Value()+b.Misses.Value())
}

func TestNFLSpaceTakeOrder(t *testing.T) {
	s := testSpace(0, 16)
	r, b := s.frontier()
	tag, ok := s.peek(r, b)
	if !ok {
		t.Fatal("empty peek on fresh region")
	}
	if _, node := unpackTag(tag); node != 100 {
		t.Fatalf("first tracked node %d, want 100", node)
	}
	// Claim all 8 slots of the first node, in bit order.
	for want := 0; want < 8; want++ {
		slot, ok := s.take(r, b, tag)
		if !ok || slot != want {
			t.Fatalf("take %d: got %d ok=%v", want, slot, ok)
		}
	}
	if _, ok := s.take(r, b, tag); ok {
		t.Fatal("took a 9th slot from an 8-slot node")
	}
	// Peek moves to the next entry.
	tag2, _ := s.peek(r, b)
	if _, node := unpackTag(tag2); node != 101 {
		t.Fatalf("next node %d, want 101", node)
	}
}

func TestNFLSpaceAdvanceAndExhaust(t *testing.T) {
	s := testSpace(0, 16) // 2 blocks of 8 entries
	total := 0
	for !s.exhausted() {
		r, b := s.frontier()
		if tag, ok := s.peek(r, b); ok {
			if _, ok := s.take(r, b, tag); ok {
				total++
				continue
			}
		}
		s.advance()
	}
	if total != 16*8 {
		t.Fatalf("extracted %d slots, want %d", total, 16*8)
	}
}

func TestNFLSpaceReleaseTagMatch(t *testing.T) {
	s := testSpace(0, 8)
	r, b := s.frontier()
	tag, _ := s.peek(r, b)
	s.take(r, b, tag)
	if !s.release(r, b, tag, 0) {
		t.Fatal("release with tag present failed")
	}
	slot, ok := s.take(r, b, tag)
	if !ok || slot != 0 {
		t.Fatal("released slot not retaken first")
	}
}

func TestNFLSpaceReleaseRepurposesFullEntry(t *testing.T) {
	s := testSpace(0, 8)
	r, b := s.frontier()
	// Fully map node 100.
	tag := packTag(0, 100)
	for i := 0; i < 8; i++ {
		s.take(r, b, tag)
	}
	// Release a slot of an untracked node from ANOTHER TreeLing: the
	// full entry must be repurposed (cross-TreeLing tags are legal).
	foreign := packTag(7, 42)
	if !s.release(r, b, foreign, 3) {
		t.Fatal("repurposing failed with a fully-assigned entry present")
	}
	got, ok := s.take(r, b, foreign)
	if !ok || got != 3 {
		t.Fatalf("foreign slot not tracked: %d %v", got, ok)
	}
}

func TestNFLSpaceReleaseFailsWhenAllPartial(t *testing.T) {
	s := testSpace(0, 8)
	r, b := s.frontier()
	// Take exactly one slot from each entry: all entries partial, no tag
	// match for a foreign node, nothing to repurpose.
	for i := 0; i < 8; i++ {
		tag := packTag(0, 100+i)
		if _, ok := s.take(r, b, tag); !ok {
			t.Fatal("setup take failed")
		}
	}
	if s.release(r, b, packTag(3, 9), 0) {
		t.Fatal("release succeeded with no full entry and no tag match")
	}
}

func TestNFLSpaceRewindAcrossRegions(t *testing.T) {
	s := newNFLSpace(8)
	s.addRegion(1, []int32{1, 2, 3, 4, 5, 6, 7, 8}, 0xff, 0)
	s.addRegion(2, []int32{1, 2, 3, 4, 5, 6, 7, 8}, 0xff, 0)
	// Move the frontier into region 2.
	s.advance()
	if r, _ := s.frontier(); r.tl != 2 {
		t.Fatal("advance did not cross regions")
	}
	if !s.rewind() {
		t.Fatal("rewind failed")
	}
	if r, b := s.frontier(); r.tl != 1 || b != 0 {
		t.Fatalf("rewind landed at tl=%d b=%d", r.tl, b)
	}
	if s.rewind() {
		t.Fatal("rewind past the first block succeeded")
	}
}

func TestNFLSpaceRewindCrossRegionMultiBlock(t *testing.T) {
	// Section VI-C1: rewinding at a region's first block must land on the
	// *last* block of the previous TreeLing's NFL, not its first.
	s := newNFLSpace(8)
	tracked := make([]int32, 24) // 3 blocks of 8 entries
	for i := range tracked {
		tracked[i] = int32(i)
	}
	s.addRegion(1, tracked, 0xff, 0)
	s.addRegion(2, tracked[:8], 0xff, 3)
	for i := 0; i < 3; i++ { // frontier to region 2, block 0
		s.advance()
	}
	if r, b := s.frontier(); r.tl != 2 || b != 0 {
		t.Fatalf("setup frontier at tl=%d b=%d", r.tl, b)
	}
	if !s.rewind() {
		t.Fatal("cross-region rewind failed")
	}
	if r, b := s.frontier(); r.tl != 1 || b != 2 {
		t.Fatalf("rewind landed at tl=%d b=%d, want tl=1 b=2", r.tl, b)
	}
}

func TestNFLSpaceRewindFromExhausted(t *testing.T) {
	// Once the frontier has run past the last region, a deallocation-driven
	// rewind must step back onto the last region's last block.
	s := newNFLSpace(8)
	s.addRegion(1, []int32{1, 2, 3, 4, 5, 6, 7, 8}, 0xff, 0)
	s.addRegion(2, []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0xff, 1)
	for !s.exhausted() {
		s.advance()
	}
	if !s.rewind() {
		t.Fatal("rewind from exhausted failed")
	}
	if s.exhausted() {
		t.Fatal("still exhausted after rewind")
	}
	if r, b := s.frontier(); r.tl != 2 || b != r.nBlocks-1 {
		t.Fatalf("rewind landed at tl=%d b=%d, want tl=2 last block", r.tl, b)
	}
}

func TestNFLSpaceFreeSlotAccounting(t *testing.T) {
	s := testSpace(0, 4)
	if got := freeSlots(s); got != 32 {
		t.Fatalf("fresh free slots %d, want 32", got)
	}
	r, b := s.frontier()
	tag, _ := s.peek(r, b)
	s.take(r, b, tag)
	if got := freeSlots(s); got != 31 {
		t.Fatalf("after take: %d", got)
	}
	if got := s.trackedSlotCapacity(8); got != 32 {
		t.Fatalf("capacity %d", got)
	}
}

func TestClearSlotAnywhere(t *testing.T) {
	s := testSpace(0, 16)
	tag := packTag(0, 108) // second block
	if !s.clearSlotAnywhere(tag, 5) {
		t.Fatal("clearSlotAnywhere missed an available slot")
	}
	if s.clearSlotAnywhere(tag, 5) {
		t.Fatal("double clear succeeded")
	}
	// The cleared slot must not be handed out.
	count := 0
	for !s.exhausted() {
		r, b := s.frontier()
		if tg, ok := s.peek(r, b); ok {
			if slot, ok := s.take(r, b, tg); ok {
				if tg == tag && slot == 5 {
					t.Fatal("cleared slot was allocated")
				}
				count++
				continue
			}
		}
		s.advance()
	}
	if count != 16*8-1 {
		t.Fatalf("allocated %d, want %d", count, 16*8-1)
	}
}

func TestPackUnpackTagProperty(t *testing.T) {
	f := func(tl uint16, node uint32) bool {
		n := int(node) % (1 << 24)
		tag := packTag(int(tl), n)
		gtl, gnode := unpackTag(tag)
		return gtl == int(tl) && gnode == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNFLBEvictionWritesBackDirty(t *testing.T) {
	cfg := testConfig()
	lay := layout.New(&cfg)
	b := newNFLB(2)
	var ops OpList
	b.Access(lay, 0, 0, true, &ops) // miss, dirty
	b.Access(lay, 0, 1, false, &ops)
	ops.Reset()
	b.Access(lay, 0, 2, false, &ops) // evicts (0,0), dirty
	wbAddr, err := lay.NFLBlockAddr(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	foundWB := false
	for _, op := range ops.Ops {
		if op.Write && op.Addr == wbAddr {
			foundWB = true
		}
	}
	if !foundWB {
		t.Fatal("dirty NFLB eviction produced no write-back")
	}
	if nflbHitRate(b) != 0 {
		t.Fatalf("hit rate %v after all misses", nflbHitRate(b))
	}
	// Re-access a resident block: hit, no ops.
	ops.Reset()
	if !b.Access(lay, 0, 2, false, &ops) {
		t.Fatal("resident block missed")
	}
	if len(ops.Ops) != 0 {
		t.Fatal("hit produced memory traffic")
	}
}

func TestHotTrackerMisraGries(t *testing.T) {
	tr := newHotTracker(2, 8, 3, 0)
	// A recurring key survives one-shot noise.
	tr.observe(1)
	tr.observe(1) // count 2
	tr.observe(2) // fills second entry
	hot := tr.observe(1)
	if !hot {
		t.Fatal("key 1 did not reach threshold 3")
	}
	// One-shot keys should decrement, not evict, key 1.
	tr.observe(3)
	tr.observe(4)
	if tr.find(1) < 0 {
		t.Fatal("hot key evicted by one-shot noise")
	}
	if !tr.atThreshold(1) {
		t.Fatal("atThreshold lost the hot key")
	}
}

func TestHotTrackerClearInterval(t *testing.T) {
	tr := newHotTracker(4, 8, 2, 4)
	tr.observe(1)
	tr.observe(1) // hot
	if !tr.atThreshold(1) {
		t.Fatal("not hot before clear")
	}
	tr.observe(2)
	tr.observe(3) // 4th observation triggers the periodic clear
	if tr.atThreshold(1) {
		t.Fatal("counter survived the clear interval")
	}
}

// scanFirst is the region-order scan the tag index replaced: the ordinal
// of the first entry carrying tag with the slot's bit set, or -1.
func scanFirst(s *nflSpace, tag int64, slot int) int32 {
	for _, r := range s.regions {
		for i, e := range r.entries {
			if e.tag == tag && e.avail&(1<<uint(slot)) != 0 {
				return r.first + int32(i)
			}
		}
	}
	return -1
}

// TestNFLTagIndexMatchesScan drives a three-region space through takes,
// releases that repurpose entries (so a tag appears in several regions),
// avail bits set behind the allocator's back the way the nfl-set fault
// does, and image restores (after which the index is rebuilt on the next
// clear), and checks every clearSlotAnywhere against the region-order scan
// and every tag chain against the entries.
func TestNFLTagIndexMatchesScan(t *testing.T) {
	s := newNFLSpace(4)
	for tl := 1; tl <= 3; tl++ {
		s.addRegion(tl, []int32{1, 2, 3, 4, 5, 6, 7}, 0xff, 0) // one padding entry each
	}
	rng := rand.New(rand.NewPCG(3, 4))
	tag := func() int64 { return packTag(1+rng.IntN(4), 1+rng.IntN(8)) } // tl 4 and node 8 are foreign
	for step := 0; step < 20000; step++ {
		r := s.regions[rng.IntN(len(s.regions))]
		b := rng.IntN(r.nBlocks)
		switch op := rng.IntN(10); {
		case op < 3:
			if tg, ok := s.peek(r, b); ok {
				s.take(r, b, tg)
			}
		case op < 5:
			s.release(r, b, tag(), rng.IntN(8))
		case op < 6:
			e := &r.entries[rng.IntN(len(r.entries))]
			e.avail |= 1 << uint(rng.IntN(8)) // the nfl-set fault's bit flip
		case op < 9:
			tg, slot := tag(), rng.IntN(8)
			want := scanFirst(s, tg, slot)
			found, before := want >= 0, uint8(0)
			if found {
				before = s.at(want).avail
			}
			if got := s.clearSlotAnywhere(tg, slot); got != found {
				t.Fatalf("step %d: clearSlotAnywhere(%#x, %d) = %v, scan found %v", step, tg, slot, got, found)
			}
			if found && s.at(want).avail != before&^(1<<uint(slot)) {
				t.Fatalf("step %d: clearSlotAnywhere(%#x, %d) did not clear entry %d", step, tg, slot, want)
			}
		default:
			s = cloneSpace(s).restore()
		}
		// Once built, every tag's chain lists exactly its entries, in
		// order, and the chains together cover every non-padding entry.
		if !s.indexed {
			continue
		}
		indexed, tagged := 0, 0
		for _, r := range s.regions {
			for _, e := range r.entries {
				if e.tag >= 0 {
					tagged++
				}
			}
		}
		for tl, heads := range s.heads {
			for node, head := range heads {
				tg := packTag(tl, node)
				var chain []int32
				for ord := head; ord >= 0; ord = s.at(ord).next {
					chain = append(chain, ord)
				}
				var want []int32
				for _, r := range s.regions {
					for i, e := range r.entries {
						if e.tag == tg {
							want = append(want, r.first+int32(i))
						}
					}
				}
				if !slices.Equal(chain, want) {
					t.Fatalf("step %d: tag %#x chain %v, entries %v", step, tg, chain, want)
				}
				indexed += len(chain)
			}
		}
		if indexed != tagged {
			t.Fatalf("step %d: chains cover %d entries, %d are tagged", step, indexed, tagged)
		}
	}
}
