package faults

import (
	"errors"
	"fmt"

	"ivleague/internal/config"
	"ivleague/internal/rng"
	"ivleague/internal/secmem"
	"ivleague/internal/sim"
)

// This file arms the injector against a *live* simulated machine (cmd/ivsim
// -inject, the figure harness): the fault lands mid-run through an op hook
// and detection — if the class is detectable — happens through the
// machine's own subsequent verified accesses, surfacing as a failed run
// with Result.Tampered set.
//
// Only the metadata classes apply here: the timing path never exercises
// the MAC'd data plane (that is the workbench's ReadData territory), so
// data-bit/splice/MAC/rollback injections have nothing to corrupt on a
// machine driven purely through Access.

// ApplyLive injects one fault of the class into a live functional
// controller, picking a target deterministically from its current mapped
// pages. It returns a description of what was corrupted. ErrNoTarget
// means the class has no target on a live machine (data-plane classes, or
// no suitable state yet).
func ApplyLive(c *secmem.Controller, class Class, seed uint64) (string, error) {
	if !c.Functional() {
		return "", errors.New("faults: live injection requires a functional controller")
	}
	if !class.AppliesTo(c.Scheme()) {
		return "", fmt.Errorf("%w: class %s does not apply to %v", ErrNoTarget, class, c.Scheme())
	}
	r := rng.New(seed).ForkString("faults-live")
	switch class {
	case ClassCounter:
		// Valid targets are exactly the materialized counter blocks (pages
		// that have been written back); the store knows them directly, so
		// the no-target probe stays O(1) for retrying hooks.
		pfns := c.Counters().PFNs()
		if len(pfns) == 0 {
			return "", fmt.Errorf("%w: no materialized counter block", ErrNoTarget)
		}
		pfn := pfns[r.Intn(len(pfns))]
		blk := r.Intn(config.BlocksPerPage)
		if err := c.TamperCounter(pfn, blk); err != nil {
			return "", err
		}
		return fmt.Sprintf("bump minor counter of pfn %d block %d", pfn, blk), nil

	case ClassTreeNode, ClassLMM:
		pages := c.MappedPages()
		if len(pages) == 0 {
			return "", fmt.Errorf("%w: no mapped pages", ErrNoTarget)
		}
		p := pages[r.Intn(len(pages))]
		if class == ClassTreeNode {
			return corruptTreeNode(c, p.PFN, r)
		}
		return forgeLMM(c, p.PFN, r)

	case ClassNFLSet, ClassNFLClear:
		_, desc, err := flipNFLAvail(c, c.IvLeague().DomainIDs(), class == ClassNFLSet, r)
		return desc, err

	case ClassScratchNode:
		return scribbleScratch(c, r)
	}
	return "", fmt.Errorf("%w: class %s needs the workbench data plane", ErrNoTarget, class)
}

// LiveClasses lists the classes ApplyLive can land on a live machine; the
// remaining (data-plane) classes only exist on the workbench.
func LiveClasses() []Class {
	return []Class{ClassCounter, ClassTreeNode, ClassLMM,
		ClassNFLSet, ClassNFLClear, ClassScratchNode}
}

// SimInjection arms live injection for simulation runs: from op AtOp
// onward the hook tries to apply the fault to the machine's memory
// controller, landing it at the first op where a target exists (e.g. a
// counter block only materializes once a dirty line is written back), and
// then flushes the metadata caches — the attacker's eviction, which also
// forces the next access of the victim page to re-verify from memory.
type SimInjection struct {
	Class Class
	AtOp  uint64
	Seed  uint64
}

// MachineOptions returns the sim options arming the injection; nil
// receiver means no injection (and no options, leaving the run's
// byte-identical uninstrumented path). Each call returns fresh state, so
// one SimInjection can arm many concurrent machines.
func (s *SimInjection) MachineOptions() []sim.MachineOption {
	if s == nil {
		return nil
	}
	applied := false
	return []sim.MachineOption{
		sim.WithFunctionalMem(),
		sim.WithOpHook(func(m *sim.Machine, op uint64) error {
			if applied || op < s.AtOp {
				return nil
			}
			if !s.Class.AppliesTo(m.Mem().Scheme()) {
				applied = true // permanently targetless on this machine
				return nil
			}
			if _, err := ApplyLive(m.Mem(), s.Class, s.Seed); err != nil {
				if errors.Is(err, ErrNoTarget) {
					return nil // no target yet; retry next op
				}
				return err
			}
			applied = true
			m.Mem().FlushMetadata()
			return nil
		}),
	}
}
