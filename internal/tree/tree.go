// Package tree implements the functional integrity-tree substrate: the
// global Bonsai Merkle Tree used by the Baseline scheme and the hash
// forest the IvLeague TreeLings live in. A TreeLing is a small,
// statically addressed subtree cut from the global tree, so both are the
// same k-ary Merkle tree at different heights: one level-indexed core
// (merkle.go) stores the nodes, rehashes to the root, verifies paths,
// scans persisted images for torn links, clones and digests. Global is
// one core tree addressed by page frame; Forest is one core tree per
// touched TreeLing addressed by top-down node index. Each only maps its
// coordinates onto the core and turns a failed link into the
// IntegrityError it reports.
//
// The functional layer maintains real (non-cryptographic but strongly
// mixing) hashes so that tamper-detection semantics can be tested
// end-to-end; the performance simulator charges tree-walk *timing* through
// the cache/DRAM models and only touches this layer when functional mode
// is enabled.
package tree

import (
	"ivleague/internal/crypto"
	"ivleague/internal/ctr"
	"ivleague/internal/layout"
	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
)

// CounterBlockHash hashes a counter block's contents together with its
// page frame number (binding position, preventing splicing).
func CounterBlockHash(pfn layout.PFN, b ctr.Block) uint64 {
	parts := make([]uint64, 0, 2+len(b.Minors)/8)
	parts = append(parts, uint64(pfn), b.Major)
	var acc uint64
	for i, m := range b.Minors {
		acc = acc<<8 | uint64(m)
		if i%8 == 7 {
			parts = append(parts, acc)
			acc = 0
		}
	}
	return crypto.NodeHash(parts...)
}

// counters are a functional tree's statistics.
type counters struct {
	Updates  stats.Counter // leaf updates
	Verifies stats.Counter // path verifications
}

// RegisterMetrics registers the tree's functional counters.
func (c *counters) RegisterMetrics(r *telemetry.Registry, prefix string) {
	r.RegisterCounter(prefix+".updates", &c.Updates)
	r.RegisterCounter(prefix+".verifies", &c.Verifies)
}

// globalKey is the global tree's node key in image digests.
func globalKey(level int, idx uint64) uint64 {
	return uint64(level)<<56 | idx
}

// Global is the functional global Bonsai Merkle Tree of the Baseline
// scheme: statically addressed, built over every page's counter block,
// with the single root held on-chip. Page pfn's counter-block hash sits in
// slot pfn%arity of level-1 node pfn/arity.
type Global struct {
	counters
	lay *layout.Layout
	t   *merkle // visited bottom-up
}

// NewGlobal creates the functional global tree for a layout. Its root
// register starts at the empty tree's hash.
func NewGlobal(lay *layout.Layout) *Global {
	g := &Global{lay: lay, t: newMerkle(lay.Arity, chunkWidths(lay.GlobalLevels, lay.GlobalLevelCount), false)}
	g.t.setRoot(g.t.zero)
	return g
}

// leaf returns the level-1 slot holding page pfn's counter-block hash:
// the parent link of counter block pfn, read as level-0 node pfn.
func (g *Global) leaf(pfn layout.PFN) link {
	return g.t.parent(0, uint64(pfn))
}

// linkError reports a failed link; Node is the position within the level.
func (g *Global) linkError(class Violation, l link, detail string) error {
	addr, err := g.lay.GlobalNodeAddr(l.level, l.pos)
	if err != nil {
		addr = 0
	}
	return newIntegrityError(class, -1, l.level, int(l.pos), l.slot, addr, detail)
}

// Update recomputes the verification path of page pfn after its counter
// block changed, ending with a new on-chip root.
//
//ivlint:hotpath
func (g *Global) Update(pfn layout.PFN, blk ctr.Block) {
	g.Updates.Inc()
	g.t.set(g.leaf(pfn), CounterBlockHash(pfn, blk))
}

// Verify walks page pfn's path from leaf to root and reports whether every
// link matches, i.e. whether the counter block (and hence the data it
// authenticates) is fresh and untampered.
//
//ivlint:hotpath
func (g *Global) Verify(pfn layout.PFN, blk ctr.Block) error {
	g.Verifies.Inc()
	l, ok := g.t.verify(g.leaf(pfn), CounterBlockHash(pfn, blk))
	switch {
	case ok:
		return nil
	case l.slot < 0:
		return g.linkError(ViolationRoot, l, rootMismatch)
	}
	return g.linkError(ViolationTreeNode, l, pathMismatch)
}

// Root returns the on-chip root hash.
func (g *Global) Root() uint64 { return g.t.root }

// Clone deep-copies the global tree: the persisted node image plus the
// on-chip root register (which RecoverRoot rebuilds from the image alone).
func (g *Global) Clone() *Global {
	return &Global{lay: g.lay, t: g.t.clone()}
}

// RestoreFrom replaces the global tree's node image with a deep copy of
// img's. The on-chip root register is NOT restored; call RecoverRoot.
func (g *Global) RestoreFrom(img *Global) {
	g.t = img.t.clone()
	g.t.dropRoot()
}

// VerifyImage checks the internal hash-chain consistency of the persisted
// node image, bottom-up: every materialized non-top node's hash must equal
// the slot its parent holds. An inconsistency means the image was torn
// mid-update.
func (g *Global) VerifyImage() error {
	if l, torn := g.t.torn(); torn {
		return g.linkError(ViolationTorn, l, tornLink)
	}
	return nil
}

// RecoverRoot rebuilds the on-chip root register from the persisted top
// node after a crash, first checking the image for torn writes.
func (g *Global) RecoverRoot() (uint64, error) {
	if err := g.VerifyImage(); err != nil {
		return 0, err
	}
	g.t.setRoot(g.t.nodeHash(g.t.height(), 0))
	return g.t.root, nil
}

// Corrupt overwrites the stored hash at (level, idx, slot) — a physical
// tamper/replay used by tests and the tamper-detection example.
func (g *Global) Corrupt(level int, idx uint64, slot int, v uint64) {
	g.t.store(link{level, idx, slot}, v)
}

// DigestImage folds the global tree's materialized node contents
// (bottom-up, key order) into a single hash, for state-equality checks
// after recovery.
func (g *Global) DigestImage() uint64 {
	return g.t.digest(globalKey)
}

// Forest is the functional hash storage for the TreeLing forest: one core
// tree per touched TreeLing, each with its own root register "on-chip",
// which is what isolates the TreeLings from each other. Nodes are named by
// top-down index (0 is the top node) and mapped to (level, position)
// through the layout.
type Forest struct {
	counters
	lay   *layout.Layout
	tls   []*merkle // indexed by TreeLing; nil = untouched, visited top-down
	empty *merkle   // read-only stand-in for untouched TreeLings
}

// NewForest creates the functional forest for a layout.
func NewForest(lay *layout.Layout) *Forest {
	w := chunkWidths(lay.TreeLingHeight, func(level int) uint64 { return uint64(lay.LevelNodeCount(level)) })
	return &Forest{lay: lay, tls: make([]*merkle, lay.TreeLingCount), empty: newMerkle(lay.Arity, w, true)}
}

// peek returns tl's tree, or the empty stand-in if tl is untouched.
func (f *Forest) peek(tl int) *merkle {
	if tl < len(f.tls) && f.tls[tl] != nil {
		return f.tls[tl]
	}
	return f.empty
}

// tree returns tl's tree, materializing it.
func (f *Forest) tree(tl int) *merkle {
	if f.tls[tl] == nil {
		f.tls[tl] = newMerkle(f.lay.Arity, f.empty.width, true)
	}
	return f.tls[tl]
}

// at maps slot `slot` of top-down node nodeIdx onto the core's link.
func (f *Forest) at(nodeIdx, slot int) link {
	level := f.lay.LevelOf(nodeIdx)
	return link{level, uint64(nodeIdx - f.lay.LevelOffset(level)), slot}
}

// linkError reports a failed link; Node is the top-down node index.
func (f *Forest) linkError(class Violation, tl int, l link, detail string) error {
	n := f.lay.NodeIndex(l.level, int(l.pos))
	addr, err := f.lay.TreeLingNodeAddr(tl, n)
	if err != nil {
		addr = 0
	}
	return newIntegrityError(class, tl, l.level, n, l.slot, addr, detail)
}

// Slot returns the hash stored in a TreeLing node slot.
func (f *Forest) Slot(tl, nodeIdx, slot int) uint64 {
	return f.peek(tl).slot(f.at(nodeIdx, slot))
}

// SetSlot stores a hash into a TreeLing node slot and recomputes the path
// from that node to the TreeLing root, refreshing the on-chip root.
//
//ivlint:hotpath
func (f *Forest) SetSlot(tl, nodeIdx, slot int, h uint64) {
	f.Updates.Inc()
	f.tree(tl).set(f.at(nodeIdx, slot), h)
}

// Verify checks the chain from (nodeIdx, slot) holding hash h up to the
// on-chip TreeLing root.
//
//ivlint:hotpath
func (f *Forest) Verify(tl, nodeIdx, slot int, h uint64) error {
	f.Verifies.Inc()
	start := f.at(nodeIdx, slot)
	l, ok := f.peek(tl).verify(start, h)
	switch {
	case ok:
		return nil
	case l.slot < 0:
		return f.linkError(ViolationRoot, tl, l, rootMismatch)
	case l == start:
		return f.linkError(ViolationTreeNode, tl, l, leafMismatch)
	}
	return f.linkError(ViolationTreeNode, tl, l, pathMismatch)
}

// Root returns the on-chip root hash of a TreeLing (0 when it has none).
func (f *Forest) Root(tl int) uint64 { return f.peek(tl).root }

// Clone deep-copies the forest: the persisted node image plus the on-chip
// root table (which RecoverRoot rebuilds from the image alone).
func (f *Forest) Clone() *Forest {
	c := &Forest{lay: f.lay, tls: make([]*merkle, len(f.tls)), empty: f.empty}
	for tl, t := range f.tls {
		if t != nil {
			c.tls[tl] = t.clone()
		}
	}
	return c
}

// RestoreFrom replaces the forest's node image with a deep copy of img's.
// The on-chip root table is deliberately NOT restored — it is lost at a
// crash; the recovery path must rebuild it per TreeLing via RecoverRoot.
func (f *Forest) RestoreFrom(img *Forest) {
	f.tls = img.Clone().tls
	for _, t := range f.tls {
		if t != nil {
			t.dropRoot()
		}
	}
}

// VerifyTreeLing checks the internal hash-chain consistency of one
// TreeLing's persisted nodes, in top-down index order: every materialized
// non-root node's hash must equal the slot its parent holds. Because every
// SetSlot rehashes up to the root, this invariant holds for any cleanly
// written image; a violation means the image was torn mid-update.
func (f *Forest) VerifyTreeLing(tl int) error {
	if l, torn := f.peek(tl).torn(); torn {
		return f.linkError(ViolationTorn, tl, l, tornLink)
	}
	return nil
}

// RecoverRoot rebuilds the on-chip root-table entry of TreeLing tl from
// the persisted node image after a crash, first checking the image for
// torn writes. A TreeLing whose top node was never materialized recovers
// to no root entry, matching a freshly assigned TreeLing.
func (f *Forest) RecoverRoot(tl int) error {
	if err := f.VerifyTreeLing(tl); err != nil {
		return err
	}
	// Only SetSlot roots a TreeLing, and it always materializes the top
	// node, so a TreeLing without one already has no root entry.
	t := f.peek(tl)
	if top := t.height(); t.node(top, 0) != nil {
		t.setRoot(t.nodeHash(top, 0))
	}
	return nil
}

// ResetTreeLing clears every node of a TreeLing and its root entry (used
// when a TreeLing is reclaimed from a destroyed domain).
func (f *Forest) ResetTreeLing(tl int) {
	if tl < len(f.tls) {
		f.tls[tl] = nil
	}
}

// Corrupt overwrites a stored slot hash — a physical tamper used in tests.
func (f *Forest) Corrupt(tl, nodeIdx, slot int, v uint64) {
	f.tree(tl).store(f.at(nodeIdx, slot), v)
}

// DigestTreeLing folds one TreeLing's materialized node contents (index
// order) into a single hash, for state-equality checks after recovery.
func (f *Forest) DigestTreeLing(tl int) uint64 {
	return f.peek(tl).digest(func(level int, pos uint64) uint64 {
		return uint64(f.lay.NodeIndex(level, int(pos)))
	})
}
