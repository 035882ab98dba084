package secmem

import (
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/layout"
)

// The access-path API v2 contract: once a working set is mapped and the
// metadata caches are warm, Do allocates nothing — the OpList, the tree
// arenas, the chunked NFLB state, and the LMM all reuse storage. Any
// allocation on this path is a regression. The contract is enforced two
// ways: the hotalloc lint analyzer catches the static patterns, and this
// test backstops everything it cannot see, such as interface conversions
// and map growth inside dependencies.
func TestSteadyStateAccessAllocsZero(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scheme  config.Scheme
		cfg     func() config.Config
		pages   uint64
		basePFN uint64
		warm    int // rotations before measuring
	}{
		{"baseline", config.SchemeBaseline, testCfg, 8, 100, 64},
		{"basic", config.SchemeIvLeagueBasic, testCfg, 8, 100, 64},
		{"invert", config.SchemeIvLeagueInvert, testCfg, 8, 100, 64},
		{"pro", config.SchemeIvLeaguePro, testCfg, 8, 100, 64},
		// A 64x wider working set on the full-size default machine.
		{"pro-512-default", config.SchemeIvLeaguePro, config.Default, 512, 4096, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			c, err := New(&cfg, tc.scheme, 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.CreateDomain(1); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < tc.pages; i++ {
				mapPage(t, c, 1, i, tc.basePFN+i)
			}
			now := uint64(1)
			access := func() {
				for i := uint64(0); i < tc.pages; i++ {
					req := AccessRequest{
						Now: now, Domain: 1,
						VPN: layout.VPN(i), PFN: layout.PFN(tc.basePFN + i),
						Block: int(i) % config.BlocksPerPage,
						Write: i%2 == 0,
					}
					if _, err := c.Do(req); err != nil {
						t.Fatalf("Do(%d): %v", i, err)
					}
					now++
				}
			}
			// Warm the counters, LMM, NFLB chunks, and (under Pro) let the
			// hotpage machinery reach its fixed point on this working set.
			for r := 0; r < tc.warm; r++ {
				access()
			}
			if avg := testing.AllocsPerRun(32, access); avg != 0 {
				t.Fatalf("steady-state access allocates: %v allocs per %d-page rotation", avg, tc.pages)
			}
		})
	}
}
