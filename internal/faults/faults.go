// Package faults is the adversarial fault-injection and crash-recovery
// engine for the integrity-tree stack. It corrupts the simulated off-chip
// backing store the way a physical attacker (bus interposer, cold-boot,
// rowhammer) or a firmware-level adversary would — data bits, MACs,
// encryption counters, tree nodes, NFL entries, LMM-extended PTEs, replay
// of stale triples — and then checks the architecture's detection story:
// every covered fault class must surface as a typed *tree.IntegrityError
// naming what the verifier observed, and the classes the design cannot see
// (hidden free slots, scratch corruption in unassigned TreeLings) must be
// explicitly benign, never a panic or a silent wrong answer.
//
// Injection is seeded and deterministic: the same (config, scheme, class,
// seed) picks the same target and produces the same report, so failures
// replay exactly. The crash model (crash.go) kills a run at op k and
// replays Phoenix-style recovery from the persisted image.
package faults

import (
	"errors"
	"fmt"

	"ivleague/internal/config"
	"ivleague/internal/core"
	"ivleague/internal/layout"
	"ivleague/internal/rng"
	"ivleague/internal/secmem"
	"ivleague/internal/tree"
)

// Class names one fault-injection class.
type Class string

const (
	// ClassDataBit flips one ciphertext bit; detected by the MAC check.
	ClassDataBit Class = "data-bit"
	// ClassDataSplice copies a valid (ciphertext, MAC) pair to another
	// address; detected by the address-bound MAC.
	ClassDataSplice Class = "data-splice"
	// ClassMAC flips a bit of the stored MAC itself.
	ClassMAC Class = "mac"
	// ClassCounter bumps an off-chip minor counter behind the tree's back;
	// detected by the verification walk (counter-hash mismatch).
	ClassCounter Class = "counter"
	// ClassTreeNode overwrites a stored tree-node slot hash; detected by
	// the walk one level up (or at the on-chip root).
	ClassTreeNode Class = "tree-node"
	// ClassNFLSet re-offers an occupied slot by setting its NFL avail bit;
	// detected at the next allocation by the assignment-table cross-check.
	ClassNFLSet Class = "nfl-set"
	// ClassNFLClear hides a free slot by clearing its avail bit. Benign by
	// design: the slot is lost capacity, no integrity statement depends on
	// it.
	ClassNFLClear Class = "nfl-clear"
	// ClassLMM forges the Leaf-ID field of an extended PTE; the misdirected
	// verification walk fails against the untampered tree.
	ClassLMM Class = "lmm"
	// ClassRollback replays a stale but self-consistent (ciphertext, MAC,
	// counter) triple; only the tree (rooted on-chip) sees the stale
	// counter.
	ClassRollback Class = "rollback"
	// ClassScratchNode corrupts a node of an unassigned TreeLing. Benign by
	// design: no domain verifies through it, and assignment reinitializes
	// whatever it needs.
	ClassScratchNode Class = "scratch-node"
)

// Detectable reports whether the architecture is expected to detect the
// class. The complement is benign by design, not a detection miss.
func (c Class) Detectable() bool {
	switch c {
	case ClassNFLClear, ClassScratchNode:
		return false
	}
	return true
}

// AppliesTo reports whether the class exists under the scheme: the NFL,
// LMM and scratch-TreeLing classes target IvLeague-only structures.
func (c Class) AppliesTo(scheme config.Scheme) bool {
	switch c {
	case ClassNFLSet, ClassNFLClear, ClassLMM, ClassScratchNode:
		return scheme.IsIvLeague()
	}
	return true
}

// blockRef names one written data block and its owner.
type blockRef struct {
	domain int
	vpn    layout.VPN
	pfn    layout.PFN
	block  int
}

// req builds the access request that re-reads the block.
func (b blockRef) req() secmem.AccessRequest {
	return secmem.AccessRequest{Domain: b.domain, VPN: b.vpn, PFN: b.pfn, Block: b.block}
}

// Workbench is a self-contained functional machine the injector attacks:
// a secure-memory controller with two domains, mapped pages and known
// plaintext written through the full secure path. Deterministic under its
// seed.
type Workbench struct {
	Cfg    config.Config
	Scheme config.Scheme
	C      *secmem.Controller

	r       *rng.Source
	blocks  []blockRef
	domains []int
	nextPFN map[int]layout.PFN
	nextVPN map[int]layout.VPN
}

// pagesPerDomain sizes the workbench footprint: enough pages that every
// class has targets (multiple TreeLings under small configs) while sweeps
// stay fast.
const pagesPerDomain = 12

// NewWorkbench builds the attack fixture for (cfg, scheme, seed).
func NewWorkbench(cfg *config.Config, scheme config.Scheme, seed uint64) (*Workbench, error) {
	c, err := secmem.New(cfg, scheme, 2, secmem.WithFunctional())
	if err != nil {
		return nil, err
	}
	w := &Workbench{
		Cfg:     *cfg,
		Scheme:  scheme,
		C:       c,
		r:       rng.New(seed).ForkString("faults"),
		domains: []int{1, 2},
		nextPFN: make(map[int]layout.PFN),
		nextVPN: make(map[int]layout.VPN),
	}
	for _, dom := range w.domains {
		if err := c.CreateDomain(dom); err != nil {
			return nil, err
		}
		if scheme == config.SchemeStaticPartition {
			lo, _ := c.PartitionRange(dom)
			w.nextPFN[dom] = lo
		} else {
			// Interleave domains over the shared frame space.
			w.nextPFN[dom] = layout.PFN(dom - 1)
		}
		w.nextVPN[dom] = 0x1000
	}
	payload := make([]byte, config.BlockBytes)
	for i := 0; i < pagesPerDomain; i++ {
		for _, dom := range w.domains {
			vpn, pfn, err := w.mapFresh(dom)
			if err != nil {
				return nil, err
			}
			for _, blk := range []int{0, 1 + w.r.Intn(config.BlocksPerPage-1)} {
				for j := range payload {
					payload[j] = byte(w.r.Uint64())
				}
				ref := blockRef{domain: dom, vpn: vpn, pfn: pfn, block: blk}
				if _, err := c.WriteBlock(ref.req(), payload); err != nil {
					return nil, err
				}
				w.blocks = append(w.blocks, ref)
			}
		}
	}
	return w, nil
}

// mapFresh maps one new page into the domain and returns its (vpn, pfn).
func (w *Workbench) mapFresh(dom int) (vpn layout.VPN, pfn layout.PFN, err error) {
	lay := w.C.Layout()
	pfn = w.nextPFN[dom]
	if uint64(pfn) >= lay.Pages {
		return 0, 0, fmt.Errorf("faults: domain %d out of frames", dom)
	}
	if w.Scheme == config.SchemeStaticPartition {
		w.nextPFN[dom] = pfn + 1
	} else {
		w.nextPFN[dom] = pfn + layout.PFN(len(w.domains))
	}
	vpn = w.nextVPN[dom]
	w.nextVPN[dom]++
	if _, err := w.C.OnPageMap(0, dom, vpn, pfn); err != nil {
		return 0, 0, err
	}
	return vpn, pfn, nil
}

// pickBlock selects one written data block.
func (w *Workbench) pickBlock() blockRef {
	return w.blocks[w.r.Intn(len(w.blocks))]
}

// Injection records one applied fault and how to probe for its detection.
type Injection struct {
	Class Class
	// Desc names the corrupted structure for reports.
	Desc string
	// ref is the data block whose read should trip detection (data-path
	// classes); nflDomain the domain whose allocations should (NFL set).
	ref       blockRef
	nflDomain int
}

// ErrNoTarget is returned by Apply when the class has no target in the
// current machine state (e.g. no occupied NFL slot yet). It is a skip, not
// a detection failure.
var ErrNoTarget = errors.New("faults: no injection target available")

// Apply injects one fault of the class into the workbench's controller,
// choosing the target deterministically from the workbench seed. The
// machine is left tampered; call Probe to run the detection check.
func (w *Workbench) Apply(class Class) (*Injection, error) {
	if !class.AppliesTo(w.Scheme) {
		return nil, fmt.Errorf("%w: class %s does not apply to %v", ErrNoTarget, class, w.Scheme)
	}
	c := w.C
	inj := &Injection{Class: class}
	var err error
	switch class {
	case ClassDataBit:
		inj.ref = w.pickBlock()
		bit := w.r.Intn(config.BlockBytes * 8)
		inj.Desc = fmt.Sprintf("flip ciphertext bit %d of pfn %d block %d", bit, inj.ref.pfn, inj.ref.block)
		return inj, c.FlipDataBit(inj.ref.pfn, inj.ref.block, bit)

	case ClassMAC:
		inj.ref = w.pickBlock()
		bit := w.r.Intn(64)
		inj.Desc = fmt.Sprintf("flip MAC bit %d of pfn %d block %d", bit, inj.ref.pfn, inj.ref.block)
		return inj, c.CorruptMAC(inj.ref.pfn, inj.ref.block, bit)

	case ClassDataSplice:
		src := w.pickBlock()
		dst := w.pickBlock()
		for dst.pfn == src.pfn && dst.block == src.block {
			dst = w.blocks[(w.r.Intn(len(w.blocks)))]
		}
		inj.ref = dst
		inj.Desc = fmt.Sprintf("splice pfn %d block %d over pfn %d block %d", src.pfn, src.block, dst.pfn, dst.block)
		return inj, c.SpliceData(src.pfn, src.block, dst.pfn, dst.block)

	case ClassCounter:
		inj.ref = w.pickBlock()
		inj.Desc = fmt.Sprintf("bump minor counter of pfn %d block %d", inj.ref.pfn, inj.ref.block)
		return inj, c.TamperCounter(inj.ref.pfn, inj.ref.block)

	case ClassRollback:
		inj.ref = w.pickBlock()
		snap, err := c.SnapshotBlock(inj.ref.pfn, inj.ref.block)
		if err != nil {
			return nil, err
		}
		payload := make([]byte, config.BlockBytes)
		for j := range payload {
			payload[j] = byte(w.r.Uint64())
		}
		if _, err := c.WriteBlock(inj.ref.req(), payload); err != nil {
			return nil, err
		}
		c.ReplayBlock(snap)
		inj.Desc = fmt.Sprintf("replay stale triple of pfn %d block %d", inj.ref.pfn, inj.ref.block)
		return inj, nil

	case ClassTreeNode:
		inj.ref = w.pickBlock()
		inj.Desc, err = corruptTreeNode(c, inj.ref.pfn, w.r)
	case ClassLMM:
		inj.ref = w.pickBlock()
		inj.Desc, err = forgeLMM(c, inj.ref.pfn, w.r)
	case ClassNFLSet, ClassNFLClear:
		inj.nflDomain, inj.Desc, err = flipNFLAvail(c, w.domains, class == ClassNFLSet, w.r)
	case ClassScratchNode:
		inj.Desc, err = scribbleScratch(c, w.r)
	default:
		return nil, fmt.Errorf("faults: unknown class %q", class)
	}
	if err != nil {
		return nil, err
	}
	return inj, nil
}

// The metadata classes below land the same way on the workbench and on a
// live machine; only the choice of victim page and domain set differs.
// Each draws from r in a fixed order, so reports replay exactly.

// corruptTreeNode overwrites the tree slot holding page pfn's counter-block
// hash: its TreeLing slot under IvLeague, its level-1 global slot
// otherwise.
func corruptTreeNode(c *secmem.Controller, pfn layout.PFN, r *rng.Source) (string, error) {
	garbage := r.Uint64() | 1
	if f := c.Forest(); f != nil {
		slot, ok := c.SlotOf(pfn)
		if !ok {
			return "", fmt.Errorf("%w: pfn %d has no slot", ErrNoTarget, pfn)
		}
		f.Corrupt(slot.TreeLing(), slot.Node(), slot.Slot(), garbage)
		return fmt.Sprintf("overwrite TreeLing %d node %d slot %d", slot.TreeLing(), slot.Node(), slot.Slot()), nil
	}
	lay := c.Layout()
	idx := lay.GlobalNodeIndex(pfn, 1)
	slot := int(uint64(pfn) % uint64(lay.Arity))
	c.GlobalTree().Corrupt(1, idx, slot, garbage)
	return fmt.Sprintf("overwrite global node L1/%d slot %d", idx, slot), nil
}

// forgeLMM points page pfn's leaf-mapping entry at another node of its
// TreeLing.
func forgeLMM(c *secmem.Controller, pfn layout.PFN, r *rng.Source) (string, error) {
	slot, ok := c.SlotOf(pfn)
	if !ok {
		return "", fmt.Errorf("%w: pfn %d has no LMM entry", ErrNoTarget, pfn)
	}
	n := c.Layout().NodesPerTreeLing
	forged := core.MakeSlot(slot.TreeLing(), (slot.Node()+1+r.Intn(n-1))%n, slot.Slot())
	if _, err := c.TamperLMM(pfn, forged); err != nil {
		return "", err
	}
	return fmt.Sprintf("forge LMM of pfn %d: %v -> %v", pfn, slot, forged), nil
}

// flipNFLAvail flips one NFL availability bit (set re-offers an occupied
// slot, clear hides a free one) in the first domain, in a random order,
// that has a candidate. It returns that domain.
func flipNFLAvail(c *secmem.Controller, domains []int, set bool, r *rng.Source) (int, string, error) {
	pick := r.Uint64()
	for _, off := range r.Perm(len(domains)) {
		dom := domains[off]
		if tl, node, s, ok := c.IvLeague().TamperNFLAvail(dom, set, pick); ok {
			return dom, fmt.Sprintf("flip avail (set=%v) of TreeLing %d node %d slot %d, domain %d", set, tl, node, s, dom), nil
		}
	}
	return 0, "", fmt.Errorf("%w: no NFL candidate (set=%v)", ErrNoTarget, set)
}

// scribbleScratch overwrites a random slot of an unassigned TreeLing.
func scribbleScratch(c *secmem.Controller, r *rng.Source) (string, error) {
	un := c.IvLeague().UnassignedTreeLings()
	if len(un) == 0 {
		return "", fmt.Errorf("%w: no unassigned TreeLing", ErrNoTarget)
	}
	lay := c.Layout()
	tl := un[r.Intn(len(un))]
	node := r.Intn(lay.NodesPerTreeLing)
	slot := r.Intn(lay.Arity)
	c.Forest().Corrupt(tl, node, slot, r.Uint64()|1)
	return fmt.Sprintf("scribble on unassigned TreeLing %d node %d slot %d", tl, node, slot), nil
}

// Report is the outcome of one inject-and-detect cycle.
type Report struct {
	Class  Class
	Scheme config.Scheme
	Desc   string
	// Detectable is the architecture's promise for the class; Detected is
	// what the probe observed. A sound run has Detected == Detectable.
	Detectable bool
	Detected   bool
	// Err is the typed violation the verifier raised, when one was.
	Err *tree.IntegrityError
}

// Ok reports whether the outcome matches the architecture's promise:
// detected when detectable, silent when benign.
func (r Report) Ok() bool { return r.Detected == r.Detectable }

// String renders the report for logs.
func (r Report) String() string {
	verdict := "benign (as designed)"
	if r.Detected {
		verdict = fmt.Sprintf("DETECTED: %v", r.Err)
	} else if r.Detectable {
		verdict = "MISSED"
	}
	return fmt.Sprintf("[%v/%s] %s -> %s", r.Scheme, r.Class, r.Desc, verdict)
}

// nflProbeCap bounds the allocations the NFL probe performs while driving
// the frontier over the corrupted entry.
const nflProbeCap = 1 << 14

// Probe runs the detection check for an applied injection: metadata caches
// are flushed (so the next access re-verifies from memory) and the
// relevant access path is exercised. It classifies the outcome; any error
// that is not a typed IntegrityError is returned as a harness failure.
func (w *Workbench) Probe(inj *Injection) (Report, error) {
	rep := Report{Class: inj.Class, Scheme: w.Scheme, Desc: inj.Desc, Detectable: inj.Class.Detectable()}
	c := w.C
	c.FlushMetadata()

	record := func(err error) (bool, error) {
		if err == nil {
			return false, nil
		}
		var ie *tree.IntegrityError
		if errors.As(err, &ie) {
			rep.Detected = true
			rep.Err = ie
			return true, nil
		}
		return false, fmt.Errorf("faults: probe of %s failed outside the integrity path: %w", inj.Class, err)
	}

	switch inj.Class {
	case ClassNFLSet:
		// Drive allocations until the frontier reaches the corrupted entry
		// and the allocSlot cross-check fires.
		for i := 0; i < nflProbeCap; i++ {
			_, _, err := w.mapFresh(inj.nflDomain)
			if err == nil {
				continue
			}
			if done, herr := record(err); herr != nil {
				return rep, herr
			} else if done {
				return rep, nil
			}
			// Out of frames/TreeLings before the corruption was offered:
			// report undetected rather than erroring the harness.
			return rep, nil
		}
		return rep, nil

	case ClassNFLClear, ClassScratchNode:
		// Benign classes: the machine must keep working. Allocate a little
		// and re-read every written block.
		for i := 0; i < 8; i++ {
			for _, dom := range w.domains {
				if _, _, err := w.mapFresh(dom); err != nil {
					if _, herr := record(err); herr != nil {
						return rep, herr
					}
					return rep, nil
				}
			}
		}
		c.FlushMetadata()
		buf := make([]byte, config.BlockBytes)
		for _, ref := range w.blocks {
			if _, err := c.ReadBlock(ref.req(), buf); err != nil {
				if _, herr := record(err); herr != nil {
					return rep, herr
				}
				return rep, nil
			}
		}
		return rep, nil

	default:
		// Data-path classes: read the targeted block.
		buf := make([]byte, config.BlockBytes)
		_, err := c.ReadBlock(inj.ref.req(), buf)
		if _, herr := record(err); herr != nil {
			return rep, herr
		}
		return rep, nil
	}
}

// InjectAndDetect is the one-call sweep entry: build a workbench for
// (cfg, scheme, seed), apply one fault of the class and probe for its
// detection. ErrNoTarget skips are returned as errors for the caller to
// filter.
func InjectAndDetect(cfg *config.Config, scheme config.Scheme, class Class, seed uint64) (Report, error) {
	w, err := NewWorkbench(cfg, scheme, seed)
	if err != nil {
		return Report{}, err
	}
	inj, err := w.Apply(class)
	if err != nil {
		return Report{}, err
	}
	return w.Probe(inj)
}
