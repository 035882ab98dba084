package layout

import (
	"strings"
	"testing"

	"ivleague/internal/config"
)

// FuzzLayoutAddrRoundTrip feeds arbitrary pfn/tl/node/addr values through
// the address-translation pairs and their inverses. The contract under
// test: out-of-range inputs produce errors, never panics, and every
// successfully computed address round-trips to the coordinates it came
// from.
func FuzzLayoutAddrRoundTrip(f *testing.F) {
	cfg := config.Default()
	l := New(&cfg)

	f.Add(uint64(0), 0, 0, uint64(0))
	f.Add(l.Pages-1, l.TreeLingCount-1, l.NodesPerTreeLing-1, l.TreeLingBase)
	f.Add(l.Pages, l.TreeLingCount, l.NodesPerTreeLing, l.Top)
	f.Add(uint64(1)<<63, -1, -1, ^uint64(0))

	f.Fuzz(func(t *testing.T, pfn uint64, tl, node int, addr uint64) {
		// Counter region: pfn -> addr -> pfn.
		if a, err := l.CounterBlockAddr(PFN(pfn)); err == nil {
			got, err := pfnOfCounterAddr(l, a)
			if err != nil {
				t.Fatalf("PFNOfCounterAddr(%#x): %v", a, err)
			}
			if uint64(got) != pfn {
				t.Fatalf("counter round-trip: pfn %d -> %#x -> %d", pfn, a, got)
			}
		} else if pfn < l.Pages {
			t.Fatalf("CounterBlockAddr rejected in-range pfn %d: %v", pfn, err)
		}

		// TreeLing forest: (tl, node) -> addr -> (tl, node).
		if a, err := l.TreeLingNodeAddr(tl, node); err == nil {
			gtl, gnode, err := l.TreeLingNodeOfAddr(a)
			if err != nil {
				t.Fatalf("TreeLingNodeOfAddr(%#x): %v", a, err)
			}
			if gtl != tl || gnode != node {
				t.Fatalf("forest round-trip: (%d,%d) -> %#x -> (%d,%d)", tl, node, a, gtl, gnode)
			}
		} else if tl >= 0 && tl < l.TreeLingCount && node >= 0 && node < l.NodesPerTreeLing {
			t.Fatalf("TreeLingNodeAddr rejected in-range (%d,%d): %v", tl, node, err)
		}

		// Inverses on arbitrary addresses must error cleanly, and any
		// address they accept must map back to where it claims.
		if p, err := pfnOfCounterAddr(l, addr); err == nil {
			back, err := l.CounterBlockAddr(p)
			if err != nil || back != addr {
				t.Fatalf("PFNOfCounterAddr(%#x) = %d but CounterBlockAddr = %#x, %v", addr, p, back, err)
			}
		} else if !strings.HasPrefix(err.Error(), "layout: ") {
			t.Fatalf("unexpected error shape: %v", err)
		}
		if gtl, gnode, err := l.TreeLingNodeOfAddr(addr); err == nil {
			back, err := l.TreeLingNodeAddr(gtl, gnode)
			if err != nil || back != addr {
				t.Fatalf("TreeLingNodeOfAddr(%#x) = (%d,%d) but TreeLingNodeAddr = %#x, %v",
					addr, gtl, gnode, back, err)
			}
		}
	})
}
