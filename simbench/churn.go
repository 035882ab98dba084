package main

import (
	"fmt"
	"runtime"

	"ivleague/internal/layout"
	"ivleague/internal/osmodel"
	"ivleague/internal/rng"
	"ivleague/internal/secmem"
	"ivleague/internal/telemetry"
)

// The secmem-churn request stream: 8 domains, zipf-skewed pages, half
// writes, and a burst that unmaps a run of one domain's pages every
// churnBurstEvery requests (the pages re-map when next touched).
const (
	churnDomains    = 8
	churnPages      = 1 << 14 // virtual pages per domain
	churnTheta      = 0.99
	churnWriteFrac  = 0.5
	churnBurstEvery = 2048
	churnBurstPages = 256
	churnRequests   = 1 << 20 // Do requests per session
	churnChunk      = 4096    // requests generated, then timed, at a time
)

// churnStream generates one session's controller calls from the seed. It
// runs outside the timed region, a chunk at a time, so the stream never
// sits whole in memory. Frames come from an osmodel.FrameAllocator.
type churnStream struct {
	r      *rng.Source
	zipf   *rng.Zipf
	perm   [][]int // per domain: popularity rank -> vpn
	pfn    [][]layout.PFN
	mapped [][]bool
	frames *osmodel.FrameAllocator
	reqs   int
	calls  []rec
}

func newChurnZipf() *rng.Zipf { return rng.NewZipf(churnPages, churnTheta) }

func newChurnStream(seed uint64, zipf *rng.Zipf, pages uint64) *churnStream {
	r := rng.New(seed).ForkString("simbench/secmem-churn")
	s := &churnStream{
		r:      r,
		zipf:   zipf,
		frames: osmodel.NewFrameAllocator(0, layout.PFN(pages)),
		calls:  make([]rec, 0, churnChunk+churnBurstPages+churnChunk),
	}
	for d := 0; d < churnDomains; d++ {
		s.perm = append(s.perm, r.Perm(churnPages))
		s.pfn = append(s.pfn, make([]layout.PFN, churnPages))
		s.mapped = append(s.mapped, make([]bool, churnPages))
	}
	return s
}

// next fills s.calls with the next chunk of calls; it returns false once
// the session has issued all its requests.
func (s *churnStream) next() (bool, error) {
	s.calls = s.calls[:0]
	for n := 0; n < churnChunk && s.reqs < churnRequests; n++ {
		if s.reqs > 0 && s.reqs%churnBurstEvery == 0 {
			if err := s.burst(); err != nil {
				return false, err
			}
		}
		d := s.r.Intn(churnDomains)
		vpn := s.perm[d][s.zipf.Next(s.r)]
		if !s.mapped[d][vpn] {
			pfn, err := s.frames.Alloc()
			if err != nil {
				return false, fmt.Errorf("secmem-churn: %w", err)
			}
			s.pfn[d][vpn], s.mapped[d][vpn] = pfn, true
			s.calls = append(s.calls, rec{kind: kMap, dom: int32(d + 1), vpn: layout.VPN(vpn), pfn: pfn})
		}
		kind := kRead
		if s.r.Bool(churnWriteFrac) {
			kind = kWrite
		}
		s.calls = append(s.calls, rec{
			kind: kind, dom: int32(d + 1), vpn: layout.VPN(vpn), pfn: s.pfn[d][vpn],
			block: uint8(s.r.Intn(64)),
		})
		s.reqs++
	}
	return len(s.calls) > 0, nil
}

// drain hands each remaining chunk of calls to fn, in order.
func (s *churnStream) drain(fn func([]rec) error) error {
	for {
		more, err := s.next()
		if err != nil || !more {
			return err
		}
		if err := fn(s.calls); err != nil {
			return err
		}
	}
}

// burst unmaps every mapped page of a random run in one domain.
func (s *churnStream) burst() error {
	d := s.r.Intn(churnDomains)
	start := s.r.Intn(churnPages - churnBurstPages)
	for v := start; v < start+churnBurstPages; v++ {
		if !s.mapped[d][v] {
			continue
		}
		s.calls = append(s.calls, rec{kind: kUnmap, dom: int32(d + 1), vpn: layout.VPN(v), pfn: s.pfn[d][v]})
		if err := s.frames.Free(s.pfn[d][v]); err != nil {
			return fmt.Errorf("secmem-churn: %w", err)
		}
		s.mapped[d][v] = false
	}
	return nil
}

// newChurnController builds one session's controller: secmem.New plus
// one domain per stream domain.
func newChurnController(w *benchWorkload, c cell) (*secmem.Controller, error) {
	cfg := w.cfg
	ctl, err := secmem.New(&cfg, c.scheme, churnDomains)
	if err != nil {
		return nil, err
	}
	for d := 1; d <= churnDomains; d++ {
		if err := ctl.CreateDomain(d); err != nil {
			return nil, err
		}
	}
	return ctl, nil
}

// runChurnCell runs one secmem-churn session with tracing off.
func runChurnCell(w *benchWorkload, c cell, rr *runtimeReader, zipf *rng.Zipf) cellRun {
	var r cellRun
	var ctl *secmem.Controller
	var err error
	r.setup, r.alloc, err = timedSetup(rr, func() error {
		ctl, err = newChurnController(w, c)
		return err
	})
	if err != nil {
		r.err = fmt.Errorf("cell %s: %w", c.id(), err)
		return r
	}
	reg := telemetry.NewRegistry()
	ctl.RegisterMetrics(reg, "secmem")
	drv := &secmemDriver{ctl: ctl, reg: reg}
	s := newChurnStream(w.cfg.Sim.Seed, zipf, ctl.Layout().Pages)
	err = s.drain(func(calls []rec) error {
		var err error
		d, a := rr.timedCall(func() { err = drv.exec(calls) })
		r.timed += d
		r.alloc += a
		return err
	})
	if err != nil {
		r.err = fmt.Errorf("cell %s: %w", c.id(), err)
		return r
	}
	r.ops = drv.calls
	r.cycles, r.instr = float64(drv.latSum), float64(drv.calls)
	r.fields = churnFields(drv.latSum, drv.calls, reg.Snapshot(), ctl.StateDigest())
	r.live = rr.liveHeap()
	runtime.KeepAlive(ctl)
	return r
}
