package tree

import "ivleague/internal/crypto"

// chunkShift sizes node chunks: 64 nodes per chunk keeps lazy
// materialization (only touched verification paths cost memory) while a
// chunk's slots stay one dense array.
const (
	chunkShift = 6
	chunkNodes = 1 << chunkShift
	chunkMask  = chunkNodes - 1
)

// chunk is a run of consecutive nodes of one level: a dense slot array
// plus per-node materialization flags. Absent nodes keep all-zero slots,
// so reads never need the flag.
type chunk struct {
	slots []uint64 // nodes * arity
	has   []bool
}

// link names slot `slot` of node (level, pos). A top node that disagrees
// with the root register fails as link{height, 0, -1}.
type link struct {
	level int
	pos   uint64
	slot  int
}

// merkle is one k-ary hash tree, the core both the global tree and every
// TreeLing are built on. Level 1 holds the leaf nodes and level `height`
// the single top node; node (level, pos) hashes into slot pos%arity of
// node (level+1, pos/arity). Nodes live in lazily materialized per-level
// chunks, and the root register is the on-chip copy of the top node's
// hash.
type merkle struct {
	arity   int
	width   []int      // [level] nodes per chunk: the level's node count, at most chunkNodes
	levels  [][]*chunk // [level][chunk]; level 0 unused
	zero    uint64     // hash of an all-zero node
	topDown bool       // visit the top level first (else level 1 first)
	root    uint64
	rooted  bool
}

// chunkWidths sizes the chunks of a tree of the given height from its
// per-level node counts.
func chunkWidths(height int, nodes func(level int) uint64) []int {
	w := make([]int, height+1)
	for level := 1; level <= height; level++ {
		w[level] = int(min(chunkNodes, nodes(level)))
	}
	return w
}

// newMerkle creates an empty tree with no root register entry. width is
// shared read-only between trees of one geometry.
func newMerkle(arity int, width []int, topDown bool) *merkle {
	return &merkle{
		arity:   arity,
		width:   width,
		levels:  make([][]*chunk, len(width)),
		zero:    crypto.NodeHash(make([]uint64, arity)...),
		topDown: topDown,
	}
}

func (t *merkle) height() int { return len(t.levels) - 1 }

// parent returns the link that covers node (level, pos).
func (t *merkle) parent(level int, pos uint64) link {
	a := uint64(t.arity)
	return link{level + 1, pos / a, int(pos % a)}
}

// node returns the slots of node (level, pos), or nil if its chunk was
// never materialized.
func (t *merkle) node(level int, pos uint64) []uint64 {
	lv := t.levels[level]
	ci := pos >> chunkShift
	if ci >= uint64(len(lv)) || lv[ci] == nil {
		return nil
	}
	off := int(pos&chunkMask) * t.arity
	return lv[ci].slots[off : off+t.arity]
}

func (t *merkle) slot(l link) uint64 {
	if n := t.node(l.level, l.pos); n != nil {
		return n[l.slot]
	}
	return 0
}

func (t *merkle) nodeHash(level int, pos uint64) uint64 {
	if n := t.node(level, pos); n != nil {
		return crypto.NodeHash(n...)
	}
	return t.zero
}

// store writes h into the linked slot, materializing its node, without
// rehashing anything above it.
func (t *merkle) store(l link, h uint64) {
	ci := int(l.pos >> chunkShift)
	for len(t.levels[l.level]) <= ci {
		//ivlint:allow hotalloc — lazy chunk-directory growth: bounded by the tree geometry, quiesces after warmup
		t.levels[l.level] = append(t.levels[l.level], nil)
	}
	c := t.levels[l.level][ci]
	if c == nil {
		w := t.width[l.level]
		c = &chunk{slots: make([]uint64, w*t.arity), has: make([]bool, w)}
		t.levels[l.level][ci] = c
	}
	n := int(l.pos & chunkMask)
	c.has[n] = true
	c.slots[n*t.arity+l.slot] = h
}

func (t *merkle) setRoot(h uint64) { t.root, t.rooted = h, true }
func (t *merkle) dropRoot()        { t.root, t.rooted = 0, false }

// set stores h into the linked slot and rehashes the path up to the top
// node, whose hash becomes the root.
func (t *merkle) set(l link, h uint64) {
	for {
		t.store(l, h)
		h = t.nodeHash(l.level, l.pos)
		if l.level == t.height() {
			break
		}
		l = t.parent(l.level, l.pos)
	}
	t.setRoot(h)
}

// verify checks that the linked slot holds h and that every link above
// it holds the hash of the node below, ending at the root register. It
// returns the first link that fails.
func (t *merkle) verify(l link, h uint64) (link, bool) {
	for {
		if t.slot(l) != h {
			return l, false
		}
		h = t.nodeHash(l.level, l.pos)
		if l.level == t.height() {
			break
		}
		l = t.parent(l.level, l.pos)
	}
	if h != t.root {
		return link{l.level, 0, -1}, false
	}
	return link{}, true
}

// each visits every materialized node: level by level in the tree's
// visit order, by ascending position within a level, until fn returns
// false.
func (t *merkle) each(fn func(level int, pos uint64) bool) {
	h := t.height()
	for i := 1; i <= h; i++ {
		level := i
		if t.topDown {
			level = h + 1 - i
		}
		for ci, c := range t.levels[level] {
			if c == nil {
				continue
			}
			for n, has := range c.has {
				if has && !fn(level, uint64(ci)<<chunkShift|uint64(n)) {
					return
				}
			}
		}
	}
}

// torn returns the first persisted parent link, in visit order, that
// disagrees with the hash of the node below it. Every set rehashes up to
// the top, so a cleanly written image has none; one means the image was
// torn mid-update.
func (t *merkle) torn() (l link, found bool) {
	t.each(func(level int, pos uint64) bool {
		if level == t.height() {
			return true
		}
		p := t.parent(level, pos)
		if t.slot(p) != t.nodeHash(level, pos) {
			l, found = p, true
		}
		return !found
	})
	return l, found
}

// digest folds every materialized node, in visit order, into one hash:
// each node contributes its key followed by its slots.
func (t *merkle) digest(key func(level int, pos uint64) uint64) uint64 {
	var parts []uint64
	t.each(func(level int, pos uint64) bool {
		parts = append(parts, key(level, pos))
		parts = append(parts, t.node(level, pos)...)
		return true
	})
	return crypto.NodeHash(parts...)
}

// clone deep-copies the node image and the root register.
func (t *merkle) clone() *merkle {
	c := *t
	c.levels = make([][]*chunk, len(t.levels))
	for level, lv := range t.levels {
		if lv == nil {
			continue
		}
		c.levels[level] = make([]*chunk, len(lv))
		for ci, ch := range lv {
			if ch != nil {
				c.levels[level][ci] = &chunk{
					slots: append([]uint64(nil), ch.slots...),
					has:   append([]bool(nil), ch.has...),
				}
			}
		}
	}
	return &c
}
