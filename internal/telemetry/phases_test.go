package telemetry

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPhaseTimersNilSafe exercises every method on a nil receiver — the
// off-by-default contract the hot path relies on.
func TestPhaseTimersNilSafe(t *testing.T) {
	var pt *PhaseTimers
	pt.BeginOp()
	tok := pt.Start()
	if tok != 0 {
		t.Fatalf("nil Start token = %d", tok)
	}
	pt.End(PhaseStep, tok)
	if pt.Report() != nil {
		t.Fatal("nil timers reported data")
	}
}

func TestPhaseTimersSampling(t *testing.T) {
	pt := NewPhaseTimers(5) // rounds up to 8
	if got := pt.SampleEvery(); got != 8 {
		t.Fatalf("SampleEvery = %d", got)
	}
	if got := NewPhaseTimers(0).SampleEvery(); got != 1 {
		t.Fatalf("SampleEvery(0) = %d", got)
	}

	armed := 0
	for op := 0; op < 64; op++ {
		pt.BeginOp()
		if tok := pt.Start(); tok != 0 {
			armed++
			pt.End(PhaseStep, tok)
		}
	}
	if armed != 8 {
		t.Fatalf("armed %d of 64 ops with period 8", armed)
	}
	if pt.samples[PhaseStep] != 8 {
		t.Fatalf("step samples = %d", pt.samples[PhaseStep])
	}
}

func TestPhaseTimersAccumulateAndReport(t *testing.T) {
	pt := NewPhaseTimers(1)
	for op := 0; op < 100; op++ {
		pt.BeginOp()
		st := pt.Start()
		sub := pt.Start()
		spin := 0
		for i := 0; i < 1000; i++ {
			spin += i
		}
		_ = spin
		pt.End(PhaseSecMem, sub)
		pt.End(PhaseStep, st)
	}
	rep := pt.Report()
	if len(rep) != int(numPhases) {
		t.Fatalf("report length %d", len(rep))
	}
	if rep[0].Phase != "step" || rep[0].Samples != 100 || rep[0].Ns == 0 {
		t.Fatalf("step stat: %+v", rep[0])
	}
	if rep[0].OfStep != 1.0 {
		t.Fatalf("step frac of itself: %v", rep[0].OfStep)
	}
	secmem := rep[PhaseSecMem]
	if secmem.Samples != 100 || secmem.OfStep <= 0 || secmem.OfStep > 1.0 {
		t.Fatalf("secmem stat: %+v", secmem)
	}
	out := pt.FormatReport()
	for _, want := range []string{"step", "secmem", "tree_walk", "% of step",
		"crypto      not timed: functional-memory runs only"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatReport missing %q:\n%s", want, out)
		}
	}
	// Once the functional path times crypto work, the row is a figure.
	pt.BeginOp()
	pt.End(PhaseCrypto, pt.Start())
	if out := pt.FormatReport(); strings.Contains(out, "not timed") || !strings.Contains(out, "crypto      ") {
		t.Fatalf("timed crypto phase still labelled functional-only:\n%s", out)
	}
}

func TestPhaseTimersRegister(t *testing.T) {
	pt := NewPhaseTimers(1)
	pt.BeginOp()
	tok := pt.Start()
	pt.End(PhaseCrypto, tok)
	reg := NewRegistry()
	pt.Register(reg, "phase")
	snap := reg.Snapshot()
	if got := snap.Gauge("phase.crypto.samples"); got != 1 {
		t.Fatalf("crypto samples gauge = %v", got)
	}
	if _, ok := snap.Gauges["phase.meta_mgmt.ns"]; !ok {
		t.Fatal("meta_mgmt gauge missing")
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseTreeWalk.String() != "tree_walk" {
		t.Fatalf("tree_walk = %q", PhaseTreeWalk)
	}
	if got := Phase(99).String(); got != "Phase(99)" {
		t.Fatalf("out of range = %q", got)
	}
}

// TestRegistryConcurrentUse hammers the registry lock from three sides —
// registration, snapshotting and source updates — and relies on the
// -race CI step to flag any unsynchronized access. Only atomic-backed
// sources are registered, matching the documented contract for
// registries that a live server snapshots.
func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	var val atomic.Uint64
	const (
		registrars = 4
		snappers   = 4
		perG       = 200
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < registrars; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				name := string(rune('a'+g)) + ".gauge." + string(rune('0'+i%10)) + string(rune('0'+i/10%10)) + string(rune('0'+i/100))
				reg.RegisterGauge(name, func() float64 { return float64(val.Load()) })
				if i%50 == 0 {
					reg.RegisterSampler(func(s *Sample) { s.Counter("dyn.count", 1) })
					reg.RegisterReset(func() {})
				}
			}
		}(g)
	}
	for g := 0; g < snappers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				val.Add(1) // snapshot-while-updating
				snap := reg.Snapshot()
				if len(snap.Gauges) > registrars*perG {
					t.Errorf("impossible gauge count %d", len(snap.Gauges))
					return
				}
				if i%20 == 0 {
					reg.SetPhase(PhaseMeasure)
					_ = reg.Snapshot().Phase
					reg.Reset()
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	snap := reg.Snapshot()
	if len(snap.Gauges) != registrars*perG {
		t.Fatalf("final gauge count %d, want %d", len(snap.Gauges), registrars*perG)
	}
}
