package dram

import (
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/telemetry"
)

func testCfg() config.DRAMConfig {
	return config.Default().DRAM
}

func TestRowBufferLocality(t *testing.T) {
	m := New(testCfg())
	// First access opens the row; the next access to the same row (same
	// bank) must be a row hit and strictly faster.
	l1 := m.Access(0, 0x100000, false)
	l2 := m.Access(10000, 0x100040, false)
	if l2 >= l1 {
		t.Fatalf("row hit latency %d not below row miss %d", l2, l1)
	}
	if m.RowHits.Value() != 1 || m.RowMisses.Value() != 1 {
		t.Fatalf("rowHits=%d rowMisses=%d", m.RowHits.Value(), m.RowMisses.Value())
	}
}

func TestBankConflictAddsWait(t *testing.T) {
	cfg := testCfg()
	m := New(cfg)
	// Two back-to-back accesses to different rows of the same bank: the
	// second waits for the bank.
	rowStride := uint64(cfg.RowBytes) * uint64(cfg.Channels*cfg.RanksPerChannel*cfg.BanksPerRank)
	l1 := m.Access(0, 0, false)
	l2 := m.Access(0, rowStride, false)
	if l2 <= l1 {
		t.Fatalf("conflicting access %d not slower than first %d", l2, l1)
	}
}

func TestWritePosted(t *testing.T) {
	m := New(testCfg())
	lat := m.Access(0, 0x2000, true)
	if lat > m.cfg.QueuePenalty*m.cfg.QueueDepth {
		t.Fatalf("posted write latency %d too high", lat)
	}
	if m.Writes.Value() != 1 || m.Reads.Value() != 0 {
		t.Fatal("write not counted")
	}
}

func TestQueuePressureGrows(t *testing.T) {
	m := New(testCfg())
	// Hammer one channel at the same instant: queue penalty accumulates.
	first := m.Access(0, 0, false)
	var last int
	for i := 0; i < 20; i++ {
		// Same channel: block addresses stride by Channels blocks.
		last = m.Access(0, uint64(i*2*64*1024), false)
	}
	if last <= first {
		t.Fatalf("queue pressure did not grow: first=%d last=%d", first, last)
	}
}

func TestQueueDrainsOverTime(t *testing.T) {
	m := New(testCfg())
	for i := 0; i < 30; i++ {
		m.Access(0, uint64(i*2*64*1024), false)
	}
	loaded := m.Access(0, 1<<30, false)
	// Far in the future the queue has drained and the same kind of access
	// is cheaper.
	relaxed := m.Access(1_000_000, 1<<29, false)
	if relaxed >= loaded {
		t.Fatalf("queue never drained: loaded=%d relaxed=%d", loaded, relaxed)
	}
}

func TestChannelInterleavingByBlock(t *testing.T) {
	m := New(testCfg())
	ch0, _, _ := m.mapAddr(0)
	ch1, _, _ := m.mapAddr(64)
	if ch0 == ch1 {
		t.Fatal("adjacent blocks map to the same channel")
	}
}

func TestStatsAndReset(t *testing.T) {
	m := New(testCfg())
	r := telemetry.NewRegistry()
	m.RegisterMetrics(r, "dram")
	m.Access(0, 0, false)
	m.Access(100, 64, false)
	if n := m.Reads.Value() + m.Writes.Value(); n != 2 {
		t.Fatalf("accesses %d", n)
	}
	if m.TotalLatency.Value() == 0 {
		t.Fatal("read latency not tracked")
	}
	r.Reset()
	if m.Reads.Value()+m.Writes.Value() != 0 || m.TotalLatency.Value() != 0 {
		t.Fatal("reset failed")
	}
	if m.RowHits.Value()+m.RowMisses.Value() != 0 {
		t.Fatal("row hit counters not reset")
	}
}

func TestWaitCapBounds(t *testing.T) {
	m := New(testCfg())
	// Saturate one bank; latency must stay bounded by the cap.
	var maxLat int
	for i := 0; i < 100; i++ {
		l := m.Access(0, 0, false)
		if l > maxLat {
			maxLat = l
		}
	}
	cfg := m.cfg
	bound := 4*cfg.RowMissLatency + cfg.RowMissLatency + cfg.QueuePenalty*cfg.QueueDepth
	if maxLat > bound {
		t.Fatalf("latency %d exceeds bound %d", maxLat, bound)
	}
}
