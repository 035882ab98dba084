package tree

// Pins of the tree's error and crash behaviour: for both the global tree
// and the TreeLing forest, a slot corrupted at each level of a written
// path must be reported by Verify, by the torn-image scan and by
// RecoverRoot after a crash with every IntegrityError field fixed, and a
// clean image must recover to the pre-crash root and digest.

import (
	"errors"
	"sort"
	"testing"

	"ivleague/internal/layout"
)

const (
	detailPath  = "stored slot disagrees with recomputed path hash"
	detailLeaf  = "stored slot disagrees with leaf hash"
	detailRoot  = "top node disagrees with on-chip root"
	detailTorn  = "persisted parent link disagrees with child hash (torn image)"
	corruptHash = 0xbad0_bad0_bad0_bad1
)

func wantErr(class Violation, tl, level, node, slot int, addr uint64, detail string) IntegrityError {
	return IntegrityError{Class: class, Domain: -1, TreeLing: tl, Level: level,
		Node: node, Slot: slot, Addr: addr, Detail: detail}
}

// checkErr requires err to be an *IntegrityError equal to want in every
// field; want.Class == "" requires no error at all.
func checkErr(t *testing.T, what string, err error, want IntegrityError) {
	t.Helper()
	if want.Class == "" {
		if err != nil {
			t.Fatalf("%s: unexpected error %v", what, err)
		}
		return
	}
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("%s: got %v, want a %s violation", what, err, want.Class)
	}
	if *ie != want {
		t.Fatalf("%s:\n got  %+v\n want %+v", what, *ie, want)
	}
}

func mustAddr(t *testing.T) func(uint64, error) uint64 {
	return func(a uint64, err error) uint64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
}

func TestGlobalErrorAndCrashPins(t *testing.T) {
	g, last := globalMatchesShadow(t, 7)
	lay := g.lay
	addr := mustAddr(t)
	a := uint64(lay.Arity)
	top := lay.GlobalLevels

	pfns := make([]uint64, 0, len(last))
	for p := range last {
		pfns = append(pfns, p)
	}
	sort.Slice(pfns, func(i, j int) bool { return pfns[i] < pfns[j] })
	pfn := layout.PFN(pfns[0])
	blk := last[pfns[0]]

	// A clean image recovers to the pre-crash root and digest.
	root, digest := g.Root(), g.DigestImage()
	if root != 0x48d8ea5e35ed88e4 || digest != 0x57810ce0cec98b59 {
		t.Fatalf("pre-crash root %#x digest %#x moved", root, digest)
	}
	rec := NewGlobal(lay)
	rec.RestoreFrom(g.Clone())
	if rec.Root() != 0 {
		t.Fatalf("RestoreFrom kept root %#x", rec.Root())
	}
	if r, err := rec.RecoverRoot(); err != nil || r != root || rec.Root() != root {
		t.Fatalf("recovered root %#x (register %#x), err %v; want %#x", r, rec.Root(), err, root)
	}
	if d := rec.DigestImage(); d != digest {
		t.Fatalf("recovered digest %#x, want %#x", d, digest)
	}
	if err := rec.Verify(pfn, blk); err != nil {
		t.Fatalf("recovered tree rejects pfn %d: %v", pfn, err)
	}

	for level := 1; level <= top; level++ {
		idx := lay.GlobalNodeIndex(pfn, level)
		slot := int(lay.GlobalNodeIndex(pfn, level-1) % a)
		c := g.Clone()
		c.Corrupt(level, idx, slot, corruptHash)
		checkErr(t, "Verify", c.Verify(pfn, blk), wantErr(ViolationTreeNode, -1, level,
			int(idx), slot, addr(lay.GlobalNodeAddr(level, idx)), detailPath))

		// Two links are torn: the corrupted slot against its child (absent
		// at level 1) and the corrupted node against its parent (absent at
		// the top). The bottom-up scan reports the lower one first.
		want := wantErr(ViolationTorn, -1, level, int(idx), slot, addr(lay.GlobalNodeAddr(level, idx)), detailTorn)
		if level == 1 {
			want = wantErr(ViolationTorn, -1, 2, int(idx/a), int(idx%a), addr(lay.GlobalNodeAddr(2, idx/a)), detailTorn)
		}
		checkErr(t, "VerifyImage", c.VerifyImage(), want)
		rec := NewGlobal(lay)
		rec.RestoreFrom(c)
		r, err := rec.RecoverRoot()
		checkErr(t, "RecoverRoot", err, want)
		if r != 0 || rec.Root() != 0 {
			t.Fatalf("level %d: torn recovery returned root %#x, register %#x", level, r, rec.Root())
		}
	}

	// A top-node slot off the path: every link verifies, the on-chip root
	// does not. Its child was never materialized, so the image scan has no
	// link to check and recovery adopts the corrupted top node.
	pathSlot := int(lay.GlobalNodeIndex(pfn, top-1) % a)
	offSlot := (pathSlot + 1) % lay.Arity
	c := g.Clone()
	c.Corrupt(top, 0, offSlot, corruptHash)
	checkErr(t, "Verify", c.Verify(pfn, blk), wantErr(ViolationRoot, -1, top, 0, -1,
		addr(lay.GlobalNodeAddr(top, 0)), detailRoot))
	checkErr(t, "VerifyImage", c.VerifyImage(), IntegrityError{})
	rec = NewGlobal(lay)
	rec.RestoreFrom(c)
	if r, err := rec.RecoverRoot(); err != nil || r == root || r != rec.Root() {
		t.Fatalf("recovery over an unlinked top slot: root %#x (register %#x), err %v", r, rec.Root(), err)
	}
	if err := rec.Verify(pfn, blk); err != nil {
		t.Fatalf("recovered tree rejects pfn %d: %v", pfn, err)
	}
	if d := rec.DigestImage(); d == digest {
		t.Fatal("corrupted image digests like the clean one")
	}
}

func TestForestErrorAndCrashPins(t *testing.T) {
	f := forestMatchesShadow(t, 11)
	lay := f.lay
	addr := mustAddr(t)
	a := lay.Arity
	top := lay.TreeLingHeight
	const tls = 8 // TreeLings the differential run writes
	nodeAddr := func(tl, level, pos int) uint64 {
		return addr(lay.TreeLingNodeAddr(tl, lay.NodeIndex(level, pos)))
	}

	// The first written leaf slot in (TreeLing, node, slot) order.
	tl, leaf, slot := -1, 0, 0
	for x := 0; x < tls && tl < 0; x++ {
		for n := lay.LevelOffset(1); n < lay.NodesPerTreeLing && tl < 0; n++ {
			for s := 0; s < a; s++ {
				if f.Slot(x, n, s) != 0 {
					tl, leaf, slot = x, n, s
					break
				}
			}
		}
	}
	if tl < 0 {
		t.Fatal("differential run wrote no leaf slot")
	}
	h := f.Slot(tl, leaf, slot)

	// A clean image recovers every TreeLing to its pre-crash root and digest.
	roots := make([]uint64, tls)
	digests := make([]uint64, tls)
	for x := 0; x < tls; x++ {
		roots[x], digests[x] = f.Root(x), f.DigestTreeLing(x)
	}
	if roots[tl] != 0x8c113ce784ad89ac || digests[tl] != 0x05596fd4b8b22d91 {
		t.Fatalf("pre-crash TreeLing %d root %#x digest %#x moved", tl, roots[tl], digests[tl])
	}
	rec := NewForest(lay)
	rec.RestoreFrom(f.Clone())
	for x := 0; x < tls; x++ {
		if hasRoot(rec, x) {
			t.Fatalf("RestoreFrom kept TreeLing %d's root", x)
		}
		if err := rec.RecoverRoot(x); err != nil {
			t.Fatalf("TreeLing %d: %v", x, err)
		}
		if rec.Root(x) != roots[x] || rec.DigestTreeLing(x) != digests[x] {
			t.Fatalf("TreeLing %d recovered root %#x digest %#x, want %#x %#x",
				x, rec.Root(x), rec.DigestTreeLing(x), roots[x], digests[x])
		}
	}
	if err := rec.Verify(tl, leaf, slot, h); err != nil {
		t.Fatalf("recovered forest rejects its leaf: %v", err)
	}

	// posAt is the position of the leaf's ancestor at a level.
	posAt := func(level int) int {
		p := lay.PosInLevel(leaf)
		for l := 1; l < level; l++ {
			p /= a
		}
		return p
	}
	for level := 1; level <= top; level++ {
		pos, cs := posAt(level), slot // cs: the path's slot at this level
		if level > 1 {
			cs = posAt(level-1) % a
		}
		c := f.Clone()
		c.Corrupt(tl, lay.NodeIndex(level, pos), cs, corruptHash)
		want := wantErr(ViolationTreeNode, tl, level, lay.NodeIndex(level, pos), cs, nodeAddr(tl, level, pos), detailPath)
		if level == 1 {
			want.Detail = detailLeaf
		}
		checkErr(t, "Verify", c.Verify(tl, leaf, slot, h), want)

		// Two links are torn: the corrupted slot against its child (absent
		// at level 1) and the corrupted node against its parent (absent at
		// the top). The top-down scan reports the upper one first.
		if level < top {
			want = wantErr(ViolationTorn, tl, level+1, lay.NodeIndex(level+1, pos/a), pos%a, nodeAddr(tl, level+1, pos/a), detailTorn)
		} else {
			want = wantErr(ViolationTorn, tl, top, 0, cs, nodeAddr(tl, top, 0), detailTorn)
		}
		checkErr(t, "VerifyTreeLing", c.VerifyTreeLing(tl), want)
		rec := NewForest(lay)
		rec.RestoreFrom(c)
		checkErr(t, "RecoverRoot", rec.RecoverRoot(tl), want)
		if hasRoot(rec, tl) || rec.Root(tl) != 0 {
			t.Fatalf("level %d: torn recovery left a root entry %#x", level, rec.Root(tl))
		}
		// The neighbours are untouched and recover cleanly.
		other := (tl + 1) % tls
		checkErr(t, "VerifyTreeLing(other)", c.VerifyTreeLing(other), IntegrityError{})
		if err := rec.RecoverRoot(other); err != nil || rec.Root(other) != roots[other] {
			t.Fatalf("TreeLing %d recovered root %#x, err %v", other, rec.Root(other), err)
		}
	}

	// A top-node slot off the path: the walk reaches the on-chip root and
	// fails there; the slot's child is materialized, so the image scan
	// sees the tear.
	offSlot := (posAt(top-1) + 1) % a
	c := f.Clone()
	c.Corrupt(tl, 0, offSlot, corruptHash)
	checkErr(t, "Verify", c.Verify(tl, leaf, slot, h), wantErr(ViolationRoot, tl, top, 0, -1,
		nodeAddr(tl, top, 0), detailRoot))
	checkErr(t, "VerifyTreeLing", c.VerifyTreeLing(tl), wantErr(ViolationTorn, tl, top, 0, offSlot,
		nodeAddr(tl, top, 0), detailTorn))

	// An untouched TreeLing has no root entry; any walk in it fails on its
	// first link, or on the one above when the claimed hash is zero.
	const fresh = 20
	if hasRoot(f, fresh) || f.Root(fresh) != 0 || f.VerifyTreeLing(fresh) != nil {
		t.Fatalf("untouched TreeLing %d has state", fresh)
	}
	lp := posAt(1)
	checkErr(t, "Verify(untouched)", f.Verify(fresh, leaf, slot, h), wantErr(ViolationTreeNode, fresh, 1,
		leaf, slot, nodeAddr(fresh, 1, lp), detailLeaf))
	checkErr(t, "Verify(untouched, zero)", f.Verify(fresh, leaf, slot, 0), wantErr(ViolationTreeNode, fresh, 2,
		lay.NodeIndex(2, lp/a), lp%a, nodeAddr(fresh, 2, lp/a), detailPath))
	if err := f.RecoverRoot(fresh); err != nil || hasRoot(f, fresh) {
		t.Fatalf("recovering an untouched TreeLing: root entry %v, err %v", hasRoot(f, fresh), err)
	}
}
