package layout

import (
	"fmt"
	"testing"
	"testing/quick"

	"ivleague/internal/config"
)

func testLayout() *Layout {
	cfg := config.Default()
	return New(&cfg)
}

// mustFn returns an unwrapper for the layout's (addr, error) results; the
// closure's parameters match the result list exactly so calls compose.
func mustFn(t *testing.T) func(uint64, error) uint64 {
	return func(a uint64, err error) uint64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
}

// pfnOfCounterAddr is the inverse of CounterBlockAddr: it recovers the page
// whose counter block lives at addr.
func pfnOfCounterAddr(l *Layout, addr uint64) (PFN, error) {
	if addr < l.CounterBase || addr >= l.GlobalTreeBase {
		return 0, fmt.Errorf("layout: address %#x outside the counter region", addr)
	}
	off := addr - l.CounterBase
	if off%config.BlockBytes != 0 {
		return 0, fmt.Errorf("layout: address %#x not counter-block aligned", addr)
	}
	return PFN(off / config.BlockBytes), nil
}

func TestRegionsDisjointAndOrdered(t *testing.T) {
	l := testLayout()
	if !(l.DataBytes <= l.CounterBase && l.CounterBase < l.GlobalTreeBase &&
		l.GlobalTreeBase < l.TreeLingBase && l.TreeLingBase < l.NFLBase &&
		l.NFLBase < l.PTBase && l.PTBase < l.Top) {
		t.Fatalf("regions out of order: %+v", l)
	}
}

func TestTreeLingNodeCounts(t *testing.T) {
	l := testLayout()
	// Arity 8 height 4: 512 + 64 + 8 + 1 nodes.
	if l.NodesPerTreeLing != 585 {
		t.Fatalf("NodesPerTreeLing = %d, want 585", l.NodesPerTreeLing)
	}
	if l.LevelNodeCount(1) != 512 || l.LevelNodeCount(4) != 1 {
		t.Fatal("level counts wrong")
	}
	if pages := l.LevelNodeCount(1) * l.Arity; pages != 4096 {
		t.Fatalf("TreeLing pages = %d", pages)
	}
	if slots := l.NodesPerTreeLing * l.Arity; slots != 585*8 {
		t.Fatalf("TreeLing slots = %d", slots)
	}
}

func TestTopDownIndexing(t *testing.T) {
	l := testLayout()
	if l.NodeIndex(4, 0) != 0 {
		t.Fatal("root must be node 0")
	}
	if l.LevelOf(0) != 4 {
		t.Fatal("node 0 must be at root level")
	}
	if l.NodeIndex(3, 0) != 1 || l.LevelOf(1) != 3 {
		t.Fatal("level 3 must start at node 1")
	}
	if l.LevelOffset(1) != 1+8+64 {
		t.Fatalf("leaf level offset = %d", l.LevelOffset(1))
	}
}

func TestParentChildInverse(t *testing.T) {
	l := testLayout()
	f := func(raw uint16) bool {
		node := int(raw) % l.NodesPerTreeLing
		level := l.LevelOf(node)
		if level == l.TreeLingHeight {
			_, _, ok := l.Parent(node)
			return !ok // root has no parent
		}
		p, slot, ok := l.Parent(node)
		if !ok {
			return false
		}
		child, ok := l.Child(p, slot)
		return ok && child == node && l.LevelOf(p) == level+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLeafHasNoChild(t *testing.T) {
	l := testLayout()
	leaf := l.NodeIndex(1, 0)
	if _, ok := l.Child(leaf, 0); ok {
		t.Fatal("leaf reported a child")
	}
}

func TestAddressesDistinct(t *testing.T) {
	l := testLayout()
	must := mustFn(t)
	seen := map[uint64]bool{}
	for tl := 0; tl < 3; tl++ {
		for n := 0; n < l.NodesPerTreeLing; n++ {
			a := must(l.TreeLingNodeAddr(tl, n))
			if seen[a] {
				t.Fatalf("duplicate node address %#x", a)
			}
			seen[a] = true
			if a < l.TreeLingBase || a >= l.NFLBase {
				t.Fatalf("node address %#x outside forest region", a)
			}
		}
	}
	for tl := 0; tl < 3; tl++ {
		for b := 0; b < l.NFLBlocksPerTreeLing; b++ {
			a := must(l.NFLBlockAddr(tl, b))
			if seen[a] {
				t.Fatalf("NFL block address %#x collides", a)
			}
			seen[a] = true
		}
	}
}

func TestGlobalTreeConverges(t *testing.T) {
	l := testLayout()
	if l.GlobalLevelCount(l.GlobalLevels) != 1 {
		t.Fatalf("global tree top level has %d nodes", l.GlobalLevelCount(l.GlobalLevels))
	}
	// Walking any page's indices reaches node 0 at the top.
	if l.GlobalNodeIndex(PFN(l.Pages-1), l.GlobalLevels) != 0 {
		t.Fatal("last page does not converge to root")
	}
}

func TestGlobalNodeAddrInRegion(t *testing.T) {
	l := testLayout()
	must := mustFn(t)
	for level := 1; level <= l.GlobalLevels; level++ {
		a := must(l.GlobalNodeAddr(level, 0))
		if a < l.GlobalTreeBase || a >= l.TreeLingBase {
			t.Fatalf("global node address %#x outside region", a)
		}
	}
}

func TestCounterAddrs(t *testing.T) {
	l := testLayout()
	must := mustFn(t)
	a0 := must(l.CounterBlockAddr(0))
	a1 := must(l.CounterBlockAddr(1))
	if a1-a0 != config.BlockBytes {
		t.Fatal("counter blocks not contiguous")
	}
	if _, err := l.CounterBlockAddr(PFN(l.Pages)); err == nil {
		t.Fatal("out-of-range pfn did not return an error")
	}
}

func TestAddrErrorsNotPanics(t *testing.T) {
	l := testLayout()
	if _, err := l.TreeLingNodeAddr(-1, 0); err == nil {
		t.Fatal("negative TreeLing accepted")
	}
	if _, err := l.TreeLingNodeAddr(0, l.NodesPerTreeLing); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := l.NFLBlockAddr(0, l.NFLBlocksPerTreeLing); err == nil {
		t.Fatal("out-of-range NFL block accepted")
	}
	if _, err := l.GlobalNodeAddr(0, 0); err == nil {
		t.Fatal("level 0 accepted by GlobalNodeAddr")
	}
}

func TestAddrInverses(t *testing.T) {
	l := testLayout()
	must := mustFn(t)
	for _, pfn := range []PFN{0, 1, PFN(l.Pages - 1)} {
		a := must(l.CounterBlockAddr(pfn))
		got, err := pfnOfCounterAddr(l, a)
		if err != nil || got != pfn {
			t.Fatalf("PFNOfCounterAddr(%#x) = %d, %v; want %d", a, got, err, pfn)
		}
	}
	for _, tc := range [][2]int{{0, 0}, {1, 5}, {2, l.NodesPerTreeLing - 1}} {
		a := must(l.TreeLingNodeAddr(tc[0], tc[1]))
		tl, node, err := l.TreeLingNodeOfAddr(a)
		if err != nil || tl != tc[0] || node != tc[1] {
			t.Fatalf("TreeLingNodeOfAddr(%#x) = (%d,%d,%v); want (%d,%d)", a, tl, node, err, tc[0], tc[1])
		}
	}
}

func TestPTEAddrStaysInRegion(t *testing.T) {
	l := testLayout()
	f := func(domain uint8, vpn uint64) bool {
		a := l.PTEAddr(int(domain), VPN(vpn))
		return a >= l.PTBase && a < l.Top
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPosInLevel(t *testing.T) {
	l := testLayout()
	for i := 0; i < l.LevelNodeCount(2); i++ {
		if l.PosInLevel(l.NodeIndex(2, i)) != i {
			t.Fatalf("PosInLevel broken at %d", i)
		}
	}
}
