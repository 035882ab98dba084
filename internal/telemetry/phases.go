package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Phase identifies one timed region of the simulator's hot path. The
// regions answer "where does simulating an op spend host time" per
// scheme without an external profiler: the whole instruction step, the
// secure-memory access under it, and the secmem sub-phases (integrity
// tree walks, MAC/crypto work, metadata-cache lookups, NFL/LMM
// metadata management). Regions nest — PhaseStep contains PhaseSecMem,
// which contains the rest — so fractions are read against the parent,
// not summed across all phases.
type Phase int

const (
	// PhaseStep is one whole instruction step (the per-op total).
	PhaseStep Phase = iota
	// PhaseSecMem is one secure-memory controller call: an LLC miss or
	// dirty writeback reaching DRAM through the secure path, or the
	// scheme's page map/unmap work on an OS page fault or unmap.
	PhaseSecMem
	// PhaseTreeWalk covers integrity-tree traversal: verification walks
	// toward the root and leaf-node updates on the write path.
	PhaseTreeWalk
	// PhaseCrypto covers functional MAC/hash work: hash-chain
	// verification and hash maintenance after writes and page maps. Only
	// functional-memory runs do that work; in timing-only runs the region
	// is never entered and FormatReport says so instead of printing 0.
	PhaseCrypto
	// PhaseMetaCache covers on-chip metadata-cache lookups: the counter
	// cache and the LMM lookup/slot-resolution path.
	PhaseMetaCache
	// PhaseMeta covers NFL/LMM metadata management — the domain
	// controller's op-list replay (NFL reads/writes, node moves,
	// TreeLing initialization) and page map/unmap bookkeeping.
	PhaseMeta
	numPhases
)

// phaseNames are the registry/report labels, index-aligned with Phase.
var phaseNames = [numPhases]string{
	"step", "secmem", "tree_walk", "crypto", "meta_cache", "meta_mgmt",
}

// String returns the phase's metric label.
func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return fmt.Sprintf("Phase(%d)", int(p))
	}
	return phaseNames[p]
}

// epoch anchors the monotonic clock reads; only differences are used.
var epoch = time.Now()

// PhaseTimers accumulates sampled host-time spent per hot-path phase.
//
// The timers are off by default (a nil *PhaseTimers): every method is
// nil-safe, so call sites pay one predictable nil check per region and
// the simulation path stays byte-for-byte identical — the timers read
// the host clock only, never simulation state, so enabling them cannot
// change any result.
//
// Sampling keeps the enabled cost low: BeginOp arms the timers every
// sample-th op, and Start/End are no-ops for unarmed ops. Like the rest
// of a machine's state, a PhaseTimers belongs to one simulation
// goroutine; readers consume it via Register/Report snapshots taken on
// that goroutine (or through an obs.Publisher).
type PhaseTimers struct {
	mask    uint64
	ops     uint64
	armed   bool
	ns      [numPhases]uint64
	samples [numPhases]uint64
}

// NewPhaseTimers creates timers that sample every sampleEvery-th op
// (rounded up to a power of two; values < 1 mean every op).
func NewPhaseTimers(sampleEvery int) *PhaseTimers {
	mask := uint64(1)
	for int(mask) < sampleEvery {
		mask <<= 1
	}
	return &PhaseTimers{mask: mask - 1}
}

// BeginOp advances the op counter and arms the timers when the op is
// sampled. Call once per instruction step, before any Start.
func (t *PhaseTimers) BeginOp() {
	if t == nil {
		return
	}
	t.armed = t.ops&t.mask == 0
	t.ops++
}

// Start returns a timestamp token for End, or 0 when the timers are
// nil or the current op is not sampled.
func (t *PhaseTimers) Start() int64 {
	if t == nil || !t.armed {
		return 0
	}
	return int64(time.Since(epoch))
}

// End accrues the time since start into phase p. A zero token (timers
// disabled, op not sampled) is a no-op, so call sites need no branches.
func (t *PhaseTimers) End(p Phase, start int64) {
	if t == nil || start == 0 {
		return
	}
	if d := int64(time.Since(epoch)) - start; d > 0 {
		t.ns[p] += uint64(d)
	}
	t.samples[p]++
}

// SampleEvery returns the sampling period in ops.
func (t *PhaseTimers) SampleEvery() int { return int(t.mask + 1) }

// PhaseStat is one phase's accumulated digest.
type PhaseStat struct {
	Phase   string  `json:"phase"`
	Ns      uint64  `json:"ns"`           // sampled host nanoseconds
	Samples uint64  `json:"samples"`      // timed region entries
	OfStep  float64 `json:"frac_of_step"` // Ns / PhaseStep's Ns (1.0 for step itself)
}

// Report returns per-phase stats in declaration order (step first).
func (t *PhaseTimers) Report() []PhaseStat {
	if t == nil {
		return nil
	}
	out := make([]PhaseStat, 0, int(numPhases))
	stepNs := t.ns[PhaseStep]
	for p := Phase(0); p < numPhases; p++ {
		frac := 0.0
		if stepNs > 0 {
			frac = float64(t.ns[p]) / float64(stepNs)
		}
		out = append(out, PhaseStat{
			Phase: p.String(), Ns: t.ns[p], Samples: t.samples[p], OfStep: frac,
		})
	}
	return out
}

// Register publishes every phase as "<prefix>.<phase>.ns" and
// "<prefix>.<phase>.samples" gauges, read at snapshot time on the
// owning goroutine like every other simulation-state gauge.
func (t *PhaseTimers) Register(r *Registry, prefix string) {
	for p := Phase(0); p < numPhases; p++ {
		p := p
		r.RegisterGauge(fmt.Sprintf("%s.%s.ns", prefix, p), func() float64 {
			return float64(t.ns[p])
		})
		r.RegisterGauge(fmt.Sprintf("%s.%s.samples", prefix, p), func() float64 {
			return float64(t.samples[p])
		})
	}
}

// FormatReport renders the phase table for CLI output, phases sorted by
// descending sampled time under the step total. A crypto phase without
// samples is labelled functional-only: a timing-only run does no hash
// work, and a 0 there does not mean crypto is free.
func (t *PhaseTimers) FormatReport() string {
	stats := t.Report()
	if len(stats) == 0 {
		return ""
	}
	sub := stats[1:]
	sort.SliceStable(sub, func(i, j int) bool { return sub[i].Ns > sub[j].Ns })
	var b strings.Builder
	fmt.Fprintf(&b, "phase timing (sampled every %d ops, host time):\n", t.SampleEvery())
	for _, s := range stats {
		if s.Phase == PhaseCrypto.String() && s.Samples == 0 {
			fmt.Fprintf(&b, "  %-11s not timed: functional-memory runs only\n", s.Phase)
			continue
		}
		fmt.Fprintf(&b, "  %-11s %12.3fms  %8d samples  %5.1f%% of step\n",
			s.Phase, float64(s.Ns)/1e6, s.Samples, s.OfStep*100)
	}
	return b.String()
}
