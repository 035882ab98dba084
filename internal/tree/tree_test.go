package tree

import (
	"testing"
	"testing/quick"

	"ivleague/internal/config"
	"ivleague/internal/ctr"
	"ivleague/internal/layout"
)

func testLayout() *layout.Layout {
	cfg := config.Default()
	cfg.DRAM.SizeBytes = 256 << 20
	cfg.IvLeague.TreeLingCount = 32
	return layout.New(&cfg)
}

func TestGlobalUpdateVerify(t *testing.T) {
	lay := testLayout()
	g := NewGlobal(lay)
	s := ctr.NewStore(7)
	s.Increment(5, 0)
	blk := s.Snapshot(5)
	g.Update(5, blk)
	if err := g.Verify(5, blk); err != nil {
		t.Fatalf("verify after update: %v", err)
	}
}

func TestGlobalDetectsReplay(t *testing.T) {
	lay := testLayout()
	g := NewGlobal(lay)
	s := ctr.NewStore(7)
	s.Increment(5, 0)
	old := s.Snapshot(5)
	g.Update(5, old)
	s.Increment(5, 0)
	fresh := s.Snapshot(5)
	g.Update(5, fresh)
	// Replaying the old counter block must fail verification.
	if err := g.Verify(5, old); err == nil {
		t.Fatal("replayed counter block verified")
	}
	if err := g.Verify(5, fresh); err != nil {
		t.Fatalf("fresh block rejected: %v", err)
	}
}

func TestGlobalDetectsNodeTampering(t *testing.T) {
	lay := testLayout()
	g := NewGlobal(lay)
	s := ctr.NewStore(7)
	for p := layout.PFN(0); p < 20; p++ {
		s.Increment(p, 0)
		g.Update(p, s.Snapshot(p))
	}
	// Corrupt an intermediate node on page 7's path.
	idx := lay.GlobalNodeIndex(7, 2)
	g.Corrupt(2, idx, int(lay.GlobalNodeIndex(7, 1)%uint64(lay.Arity)), 0x1234)
	if err := g.Verify(7, s.Snapshot(7)); err == nil {
		t.Fatal("tampered intermediate node not detected")
	}
}

func TestGlobalRootChangesWithUpdates(t *testing.T) {
	lay := testLayout()
	g := NewGlobal(lay)
	r0 := g.Root()
	s := ctr.NewStore(7)
	s.Increment(0, 0)
	g.Update(0, s.Snapshot(0))
	if g.Root() == r0 {
		t.Fatal("root unchanged after update")
	}
}

func TestGlobalSiblingIsolationOfUpdates(t *testing.T) {
	lay := testLayout()
	g := NewGlobal(lay)
	s := ctr.NewStore(7)
	s.Increment(0, 0)
	g.Update(0, s.Snapshot(0))
	s.Increment(1, 0)
	g.Update(1, s.Snapshot(1))
	// Page 0 must still verify after page 1's update.
	if err := g.Verify(0, s.Snapshot(0)); err != nil {
		t.Fatalf("sibling update broke page 0: %v", err)
	}
}

func TestForestSetVerify(t *testing.T) {
	lay := testLayout()
	f := NewForest(lay)
	leaf := lay.NodeIndex(1, 3)
	f.SetSlot(2, leaf, 5, 0xabc)
	if err := f.Verify(2, leaf, 5, 0xabc); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := f.Verify(2, leaf, 5, 0xdef); err == nil {
		t.Fatal("wrong hash verified")
	}
}

func TestForestIsolationBetweenTreeLings(t *testing.T) {
	lay := testLayout()
	f := NewForest(lay)
	leaf := lay.NodeIndex(1, 0)
	f.SetSlot(1, leaf, 0, 0x111)
	f.SetSlot(2, leaf, 0, 0x222)
	r1 := f.Root(1)
	// Updating TreeLing 2 must not disturb TreeLing 1's root: that is the
	// isolation property the whole design rests on.
	f.SetSlot(2, leaf, 1, 0x333)
	if f.Root(1) != r1 {
		t.Fatal("TreeLing 1 root changed by TreeLing 2 update")
	}
	if err := f.Verify(1, leaf, 0, 0x111); err != nil {
		t.Fatalf("TreeLing 1 broken: %v", err)
	}
}

func TestForestDetectsCorruption(t *testing.T) {
	lay := testLayout()
	f := NewForest(lay)
	leaf := lay.NodeIndex(1, 7)
	f.SetSlot(0, leaf, 2, 0x999)
	// Corrupt a node on the path (the leaf's parent).
	p, slot, _ := lay.Parent(leaf)
	f.Corrupt(0, p, slot, 0xbad)
	if err := f.Verify(0, leaf, 2, 0x999); err == nil {
		t.Fatal("corrupted path node not detected")
	}
}

func TestForestResetTreeLing(t *testing.T) {
	lay := testLayout()
	f := NewForest(lay)
	leaf := lay.NodeIndex(1, 0)
	f.SetSlot(3, leaf, 0, 0x77)
	f.ResetTreeLing(3)
	if f.Root(3) != 0 {
		t.Fatal("root survives reset")
	}
	if f.Slot(3, leaf, 0) != 0 {
		t.Fatal("slot survives reset")
	}
}

func TestCounterBlockHashSensitivity(t *testing.T) {
	var a, b ctr.Block
	if CounterBlockHash(1, a) == CounterBlockHash(2, a) {
		t.Fatal("hash ignores pfn (splicing possible)")
	}
	b.Minors[63] = 1
	if CounterBlockHash(1, a) == CounterBlockHash(1, b) {
		t.Fatal("hash ignores last minor counter")
	}
	b = a
	b.Major = 1
	if CounterBlockHash(1, a) == CounterBlockHash(1, b) {
		t.Fatal("hash ignores major counter")
	}
}

// Property: update-then-verify always succeeds for arbitrary pages and
// counter contents.
func TestGlobalUpdateVerifyProperty(t *testing.T) {
	lay := testLayout()
	g := NewGlobal(lay)
	f := func(pfnRaw uint32, major uint64, minor uint8) bool {
		pfn := layout.PFN(uint64(pfnRaw) % lay.Pages)
		blk := ctr.Block{Major: major}
		blk.Minors[0] = minor
		g.Update(pfn, blk)
		return g.Verify(pfn, blk) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
