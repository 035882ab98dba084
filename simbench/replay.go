package main

import (
	"errors"
	"fmt"

	"ivleague/internal/cache"
	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/osmodel"
	"ivleague/internal/pagetable"
	"ivleague/internal/secmem"
	"ivleague/internal/telemetry"
	"ivleague/internal/workload"
)

// chunkLen is the number of calls one chunk span covers: stages read the
// clock per chunk, never per call.
const chunkLen = 1 << 16

// secmemSampleEvery is the sampling period of the per-kind call timing
// that apportions the secmem stage's time between reads, writes, maps and
// unmaps.
const secmemSampleEvery = 64

// replayParts are one cell's layer objects, built standalone with their
// public constructors the way sim.NewMachine wires them. The traced run
// times their construction as the children of the setup span, then the
// replay re-drives the cell through them.
type replayParts struct {
	cfg     config.Config
	scheme  config.Scheme
	gens    []*workload.Generator // per thread, in core order
	thProc  []int                 // thread -> process index
	l1, l2  []*cache.Cache        // per thread
	l3      *cache.Cache
	ctl     *secmem.Controller
	domains int
}

func (p *replayParts) threads() int { return len(p.gens) }

// partitionsFor mirrors sim.NewMachine's default: the smallest power of
// two that holds one partition per process.
func partitionsFor(procs int) int {
	n := 1
	for n < procs {
		n <<= 1
	}
	return n
}

// buildParts constructs the parts, timing each constructor under parent.
func buildParts(tr *tracer, cellID string, parent int, cfg config.Config, c cell, acc *layerAcc) (*replayParts, error) {
	p := &replayParts{cfg: cfg, scheme: c.scheme, domains: len(c.mix.Procs)}
	var err error
	sp := tr.begin(cellID, "secmem.New", parent)
	p.ctl, err = secmem.New(&p.cfg, c.scheme, partitionsFor(len(c.mix.Procs)))
	for d := 1; err == nil && d <= len(c.mix.Procs); d++ {
		err = p.ctl.CreateDomain(d)
	}
	acc.add("secmem.new_ns", "", float64(tr.end(sp, 1)))
	if err != nil {
		return nil, err
	}
	newCache := func(cc config.CacheConfig, seed uint64) *cache.Cache {
		if err != nil {
			return nil
		}
		sp := tr.begin(cellID, "cache.New", parent)
		var ch *cache.Cache
		ch, err = cache.New(cc, seed, 0)
		acc.add("cache.new_ns", "", float64(tr.end(sp, 1)))
		return ch
	}
	p.l3 = newCache(cfg.L3, cfg.Sim.Seed^0x13c3ed)
	core := 0
	for pi, prof := range c.mix.Procs {
		domain := pi + 1
		for ti := 0; ti < prof.Threads; ti++ {
			p.l1 = append(p.l1, newCache(cfg.L1, cfg.Sim.Seed^uint64(core)<<16))
			p.l2 = append(p.l2, newCache(cfg.L2, cfg.Sim.Seed^uint64(core)<<24))
			sp := tr.begin(cellID, "workload.NewGenerator", parent)
			g := workload.NewGenerator(prof, cfg.Sim.Seed^uint64(domain)<<8, ti,
				workload.GenOpts{Scale: cfg.Sim.FootprintScale, InitFrac: cfg.Sim.InitFrac})
			acc.add("workload.new_ns", "", float64(tr.end(sp, 1)))
			p.gens = append(p.gens, g)
			p.thProc = append(p.thProc, pi)
			core++
		}
	}
	return p, err
}

// freeRange is one churn burst a generator asked for at a step.
type freeRange struct {
	step int
	vpn  uint64
	n    int
}

// Generated events pack into one word: vpn<<8 | block<<2 | write<<1 | mem.
func packEvent(ev workload.Event) uint64 {
	if !ev.Mem {
		return 0
	}
	w := uint64(0)
	if ev.Write {
		w = 2
	}
	return ev.VPN<<8 | uint64(ev.Block)<<2 | w | 1
}

// replayOut is what the replay measured and counted.
type replayOut struct {
	steps     uint64
	stageNs   [4]int64 // workload, pagetable+osmodel, cache, secmem
	tlbOnlyNs int64

	tlbLookups, tlbHits uint64
	osCalls             uint64 // Touch + Unmap calls
	faults, unmaps      uint64
	cacheAcc, cacheHits [3]uint64 // whole run, per level
	writebacks          uint64
	window              map[string]uint64 // cache counts named like the machine's registry
	drv                 *secmemDriver
	final               telemetry.Snapshot
	state               []byte
	mapped              int
	secmemNsByKind      [numKinds]float64
}

// chunker ends and begins chunk spans as a stage's call count grows.
type chunker struct {
	tr     *tracer
	cell   string
	parent int
	cur    int
	calls  int
	next   int
}

func newChunker(tr *tracer, cellID string, parent int) *chunker {
	return &chunker{tr: tr, cell: cellID, parent: parent, cur: tr.begin(cellID, "chunk", parent), next: chunkLen}
}

func (c *chunker) tick(calls int) {
	if calls < c.next {
		return
	}
	c.tr.end(c.cur, uint64(calls-c.calls))
	c.calls, c.next = calls, calls+chunkLen
	c.cur = c.tr.begin(c.cell, "chunk", c.parent)
}

func (c *chunker) done(calls int) { c.tr.end(c.cur, uint64(calls-c.calls)) }

// replay re-drives the cell in Run's order (threads round-robin, one
// instruction each per iteration, statistics reset at the same warmup
// boundary), as four staged spans under parent.
func replay(tr *tracer, cellID string, parent int, p *replayParts, overhead float64) (*replayOut, error) {
	out := &replayOut{}
	nth := p.threads()
	warm := p.cfg.Sim.WarmupInstr
	for _, g := range p.gens {
		if need := g.InitInstr() + p.cfg.Sim.WarmupInstr/2; need > warm {
			warm = need
		}
	}
	total := warm + p.cfg.Sim.MeasureInstr
	warmStep := int(warm) * nth

	// Stage 1: workload. Generator.Next for every step, churn bursts
	// recorded with the step that asked for them.
	events := make([]uint64, 0, int(total)*nth)
	var frees []freeRange
	for _, g := range p.gens {
		g.OnFreeRange = func(vpn uint64, n int) {
			frees = append(frees, freeRange{step: len(events), vpn: vpn, n: n})
		}
	}
	sp := tr.begin(cellID, "replay.workload", parent)
	ch := newChunker(tr, cellID, sp)
	for i := uint64(0); i < total; i++ {
		for _, g := range p.gens {
			events = append(events, packEvent(g.Next()))
		}
		ch.tick(len(events))
	}
	ch.done(len(events))
	out.stageNs[0] = tr.end(sp, uint64(len(events)))
	out.steps = uint64(len(events))
	for _, g := range p.gens {
		g.OnFreeRange = nil
	}

	// Stage 2: pagetable and osmodel. TLB lookups and inserts, page
	// faults through Process.Touch, bursts through Process.Unmap. Map,
	// unmap and TLB-evict callbacks are logged, not executed.
	log2, err := pagetableStage(tr, cellID, parent, p, events, frees, warmStep, out)
	if err != nil {
		return nil, err
	}
	// The TLB share of stage 2: the same lookups, inserts and
	// invalidations on fresh TLBs, driven from the log.
	if err := tlbOnlyStage(tr, cellID, parent, p, log2, out); err != nil {
		return nil, err
	}

	// Stage 3: cache. L1/L2/L3 with write-allocate and the writeback
	// cascade; LLC misses and dirty LLC victims are logged.
	log3 := cacheStage(tr, cellID, parent, p, log2, out)
	log3 = resolveOwners(log3)

	// Stage 4: secmem. The log replays into the fresh controller with a
	// synthetic clock; its counts come from a fresh registry.
	reg := telemetry.NewRegistry()
	p.ctl.RegisterMetrics(reg, "secmem")
	drv := &secmemDriver{ctl: p.ctl, reg: reg, sampleEvery: secmemSampleEvery}
	sp = tr.begin(cellID, "replay.secmem", parent)
	for start := 0; start < len(log3); start += chunkLen {
		end := min(start+chunkLen, len(log3))
		c := tr.begin(cellID, "chunk", sp)
		err := drv.execSampled(log3[start:end])
		tr.end(c, uint64(end-start))
		if err != nil {
			return nil, err
		}
	}
	out.stageNs[3] = tr.end(sp, uint64(len(log3)))
	out.drv = drv
	out.final = reg.Snapshot()
	out.state = p.ctl.StateDigest()
	out.mapped = len(p.ctl.MappedPages())
	out.secmemNsByKind = apportion(out.stageNs[3], drv, overhead)
	return out, nil
}

func pagetableStage(tr *tracer, cellID string, parent int, p *replayParts, events []uint64, frees []freeRange, warmStep int, out *replayOut) ([]rec, error) {
	nth := p.threads()
	lay := p.ctl.Layout()
	frames := osmodel.NewFrameAllocator(0, layout.PFN(lay.Pages))
	levels := pagetable.ClassicLevels
	if p.scheme.IsIvLeague() {
		levels = pagetable.IvLeagueLevels
	}
	log := make([]rec, 0, len(events)/2)
	var curTh uint8
	procs := make([]*osmodel.Process, p.domains)
	for pi := range procs {
		proc := osmodel.NewProcess(pi+1, pi+1, frames, levels)
		proc.OnPageMap = func(d int, vpn layout.VPN, pfn layout.PFN) {
			log = append(log, rec{kind: kMap, dom: int32(d), vpn: vpn, pfn: pfn})
		}
		proc.OnPageUnmap = func(d int, vpn layout.VPN, pfn layout.PFN) {
			log = append(log, rec{kind: kUnmap, th: curTh, dom: int32(d), vpn: vpn, pfn: pfn})
		}
		procs[pi] = proc
	}
	tlbs := make([]*pagetable.TLB, nth)
	for t := range tlbs {
		dom := int32(p.thProc[t] + 1)
		tlbs[t] = pagetable.NewTLB(p.cfg.Core.TLBEntries, 8)
		tlbs[t].OnEvict = func(vpn layout.VPN) {
			log = append(log, rec{kind: kEvict, dom: dom, vpn: vpn})
		}
	}

	sp := tr.begin(cellID, "replay.pagetable", parent)
	ch := newChunker(tr, cellID, sp)
	fi := 0
	for step, e := range events {
		th := step % nth
		proc := procs[p.thProc[th]]
		if step == warmStep {
			log = append(log, rec{kind: kReset})
		}
		for fi < len(frees) && frees[fi].step == step {
			fr := frees[fi]
			fi++
			curTh = uint8(th)
			out.osCalls += uint64(fr.n)
			for v := fr.vpn; v < fr.vpn+uint64(fr.n); v++ {
				ok, err := proc.Unmap(layout.VPN(v))
				if err != nil && !errors.Is(err, osmodel.ErrNotMapped) {
					return nil, err
				}
				if ok {
					tlbs[th].Invalidate(layout.VPN(v))
				}
			}
		}
		ch.tick(step)
		if e&1 == 0 {
			continue
		}
		vpn := layout.VPN(e >> 8)
		tlb := tlbs[th]
		pfn, hit := tlb.Lookup(vpn)
		if !hit {
			pf, _, err := proc.Touch(vpn)
			if err != nil {
				return nil, err
			}
			out.osCalls++
			tlb.Insert(vpn, pf)
			log = append(log, rec{kind: kWalk, dom: int32(proc.DomainID), vpn: vpn})
			pfn = pf
		}
		log = append(log, rec{
			kind: kAccess, th: uint8(th), block: uint8(e >> 2 & 63), write: e&2 != 0,
			dom: int32(proc.DomainID), vpn: vpn, pfn: pfn,
		})
	}
	ch.done(len(events))
	out.stageNs[1] = tr.end(sp, uint64(len(events)))
	for _, t := range tlbs {
		out.tlbHits += t.Hits.Value()
		out.tlbLookups += t.Hits.Value() + t.Misses.Value()
	}
	for _, proc := range procs {
		out.faults += proc.PagesMapped.Value()
		out.unmaps += proc.PagesFreed.Value()
	}
	return log, nil
}

func tlbOnlyStage(tr *tracer, cellID string, parent int, p *replayParts, log []rec, out *replayOut) error {
	tlbs := make([]*pagetable.TLB, p.threads())
	for t := range tlbs {
		tlbs[t] = pagetable.NewTLB(p.cfg.Core.TLBEntries, 8)
	}
	sp := tr.begin(cellID, "replay.pagetable.tlb-only", parent)
	ch := newChunker(tr, cellID, sp)
	var hits uint64
	for i := range log {
		r := &log[i]
		switch r.kind {
		case kAccess:
			if _, hit := tlbs[r.th].Lookup(r.vpn); hit {
				hits++
			} else {
				tlbs[r.th].Insert(r.vpn, r.pfn)
			}
		case kUnmap:
			tlbs[r.th].Invalidate(r.vpn)
		}
		ch.tick(i)
	}
	ch.done(len(log))
	out.tlbOnlyNs = tr.end(sp, uint64(len(log)))
	if hits != out.tlbHits {
		return fmt.Errorf("replay: TLB re-drive hit %d times, the pagetable stage %d", hits, out.tlbHits)
	}
	return nil
}

// hierarchy is the cache stage's L3 and output log.
type hierarchy struct {
	l3         *cache.Cache
	out        []rec
	writebacks uint64
}

// victim logs a dirty LLC victim for the secure write path.
func (h *hierarchy) victim(addr uint64) {
	h.writebacks++
	h.out = append(h.out, rec{
		kind:  kVictim,
		pfn:   layout.PFN(addr >> config.PageShift),
		block: uint8(int(addr>>config.BlockShift) & (config.BlocksPerPage - 1)),
	})
}

// writeback pushes a dirty line one level down, as sim does.
func (h *hierarchy) writeback(lower *cache.Cache, addr uint64) {
	h.writebacks++
	r := lower.Access(addr, true)
	if !r.EvictedDirty {
		return
	}
	if lower == h.l3 {
		h.victim(r.WritebackAddr)
		return
	}
	h.writebacks++
	r3 := h.l3.Access(r.WritebackAddr, true)
	if r3.EvictedDirty {
		h.victim(r3.WritebackAddr)
	}
}

func cacheStage(tr *tracer, cellID string, parent int, p *replayParts, in []rec, out *replayOut) []rec {
	h := &hierarchy{l3: p.l3, out: make([]rec, 0, len(in)/8)}
	var base map[string]uint64
	sp := tr.begin(cellID, "replay.cache", parent)
	ch := newChunker(tr, cellID, sp)
	for i := range in {
		r := &in[i]
		ch.tick(i)
		if r.kind != kAccess {
			if r.kind == kReset {
				base = cacheCounts(p)
			}
			h.out = append(h.out, *r)
			continue
		}
		addr := uint64(r.pfn)<<config.PageShift | uint64(r.block)<<config.BlockShift
		l1, l2 := p.l1[r.th], p.l2[r.th]
		r1 := l1.Access(addr, r.write)
		if r1.EvictedDirty {
			h.writeback(l2, r1.WritebackAddr)
		}
		if r1.Hit {
			continue
		}
		r2 := l2.Access(addr, false)
		if r2.EvictedDirty {
			h.writeback(h.l3, r2.WritebackAddr)
		}
		if r2.Hit {
			continue
		}
		r3 := h.l3.Access(addr, false)
		if r3.EvictedDirty {
			h.victim(r3.WritebackAddr)
		}
		if !r3.Hit {
			h.out = append(h.out, rec{kind: kRead, dom: r.dom, vpn: r.vpn, pfn: r.pfn, block: r.block})
		}
	}
	ch.done(len(in))
	out.stageNs[2] = tr.end(sp, uint64(len(in)))
	out.writebacks = h.writebacks
	out.window = cacheCounts(p)
	for n, v := range base {
		out.window[n] -= v
	}
	for t := range p.l1 {
		for lvl, c := range []*cache.Cache{p.l1[t], p.l2[t]} {
			out.cacheHits[lvl] += c.Hits.Value()
			out.cacheAcc[lvl] += c.Hits.Value() + c.Misses.Value()
		}
	}
	out.cacheHits[2] = p.l3.Hits.Value()
	out.cacheAcc[2] = p.l3.Hits.Value() + p.l3.Misses.Value()
	return h.out
}

// cacheCounts names the caches' counters as the machine's registry does.
func cacheCounts(p *replayParts) map[string]uint64 {
	m := map[string]uint64{
		"sim.l3.hits":   p.l3.Hits.Value(),
		"sim.l3.misses": p.l3.Misses.Value(),
	}
	for t := range p.l1 {
		m[fmt.Sprintf("sim.core%d.l1.hits", t)] = p.l1[t].Hits.Value()
		m[fmt.Sprintf("sim.core%d.l1.misses", t)] = p.l1[t].Misses.Value()
		m[fmt.Sprintf("sim.core%d.l2.hits", t)] = p.l2[t].Hits.Value()
		m[fmt.Sprintf("sim.core%d.l2.misses", t)] = p.l2[t].Misses.Value()
	}
	return m
}

// resolveOwners turns each dirty LLC victim into a secure write for the
// page that owns its frame at that point of the log, dropping victims of
// freed pages, as sim's frame-owner table does. It is the benchmark's
// own bookkeeping and runs outside every stage span.
func resolveOwners(log []rec) []rec {
	type owner struct {
		dom int32
		vpn layout.VPN
	}
	owners := map[layout.PFN]owner{}
	j := 0
	for _, r := range log {
		switch r.kind {
		case kMap:
			owners[r.pfn] = owner{r.dom, r.vpn}
		case kUnmap:
			delete(owners, r.pfn)
		case kVictim:
			o, ok := owners[r.pfn]
			if !ok {
				continue
			}
			r.kind, r.dom, r.vpn = kWrite, o.dom, o.vpn
		}
		log[j] = r
		j++
	}
	return log[:j]
}

// apportion splits a chunk-timed total between call kinds in proportion
// to each kind's sampled mean time (less the clock's own cost) times its
// call count.
func apportion(totalNs int64, d *secmemDriver, overhead float64) [numKinds]float64 {
	var w, out [numKinds]float64
	var sum float64
	for k := range w {
		if d.sampled[k] == 0 {
			continue
		}
		mean := float64(d.sampledNs[k])/float64(d.sampled[k]) - overhead
		if mean < 0 {
			mean = 0
		}
		w[k] = mean * float64(d.count[k])
		sum += w[k]
	}
	if sum == 0 {
		return out
	}
	for k := range w {
		out[k] = float64(totalNs) * w[k] / sum
	}
	return out
}
