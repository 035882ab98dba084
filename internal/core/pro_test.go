package core

import (
	"math/rand/v2"
	"testing"
)

// refTracker is the linear-scan hot tracker the indexed one replaced, kept
// as the reference model: lookups scan the entries, and an insert takes
// the first invalid entry, else the lowest-index entry with the smallest
// counter, decrementing it instead while its counter exceeds 1.
type refTracker struct {
	entries  []hotEntry
	max      uint32
	thresh   uint32
	interval uint64
	accesses uint64
}

func (t *refTracker) find(key uint64) int {
	for i, e := range t.entries {
		if e.valid && e.pfn == key {
			return i
		}
	}
	return -1
}

// observe returns whether the counter just reached the threshold.
func (t *refTracker) observe(key uint64) bool {
	t.accesses++
	if t.interval > 0 && t.accesses%t.interval == 0 {
		for i := range t.entries {
			t.entries[i].count = 0
		}
	}
	if i := t.find(key); i >= 0 {
		e := &t.entries[i]
		if e.count < t.max {
			e.count++
		}
		return e.count == t.thresh
	}
	slot := -1
	for i := range t.entries {
		if !t.entries[i].valid {
			slot = i
			break
		}
		if slot < 0 || t.entries[i].count < t.entries[slot].count {
			slot = i
		}
	}
	if t.entries[slot].valid && t.entries[slot].count > 1 {
		t.entries[slot].count--
		return false
	}
	t.entries[slot] = hotEntry{pfn: key, count: 1, valid: true}
	return t.thresh == 1
}

func (t *refTracker) atThreshold(key uint64) bool {
	if i := t.find(key); i >= 0 {
		return t.entries[i].count >= t.thresh
	}
	return false
}

// TestHotTrackerMatchesReference drives the indexed tracker and the scan
// reference with one skewed key stream — a recurring hot set plus one-shot
// traffic — and compares the hot decision the controller takes (observe's
// result against the reference's hot || atThreshold), a lookup of a random
// key, and the whole entries array after every step.
func TestHotTrackerMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		n, counterBits int
		thresh         uint32
		interval       uint64
	}{
		{1, 8, 1, 0}, {1, 2, 3, 7},
		{3, 2, 1, 7}, {3, 2, 3, 0}, {3, 8, 2, 7},
		{128, 8, 32, 1 << 17}, {128, 2, 3, 7}, {128, 2, 1, 0}, {128, 8, 4, 7},
	} {
		rng := rand.New(rand.NewPCG(uint64(tc.n), uint64(tc.thresh)))
		got := newHotTracker(tc.n, tc.counterBits, tc.thresh, tc.interval)
		ref := &refTracker{entries: make([]hotEntry, tc.n), max: 1<<uint(tc.counterBits) - 1,
			thresh: tc.thresh, interval: tc.interval}
		keys := uint64(3*tc.n + 2)
		for step := 0; step < 20000; step++ {
			key := rng.Uint64N(keys)
			if rng.IntN(4) == 0 {
				key = rng.Uint64N(uint64(tc.n) + 1) // the recurring hot set
			}
			want := ref.observe(key) || ref.atThreshold(key)
			if hot := got.observe(key); hot != want {
				t.Fatalf("%+v step %d key %d: observe = %v, reference %v", tc, step, key, hot, want)
			}
			probe := rng.Uint64N(keys)
			if g, w := got.atThreshold(probe), ref.atThreshold(probe); g != w {
				t.Fatalf("%+v step %d: atThreshold(%d) = %v, reference %v", tc, step, probe, g, w)
			}
			for i := range ref.entries {
				if got.entries[i] != ref.entries[i] {
					t.Fatalf("%+v step %d: entry %d = %+v, reference %+v", tc, step, i, got.entries[i], ref.entries[i])
				}
			}
		}
	}
}
