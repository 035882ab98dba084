package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// NodeKey identifies one integrity-metadata storage unit in memory:
//   - a TreeLing tree node: TreeLing >= 0, Level >= 1, Node = top-down index
//   - a TreeLing NFL block: TreeLing >= 0, Level == LevelNFL, Node = block
//   - a global-tree node (Baseline/StaticPartition): TreeLing ==
//     GlobalTreeLing, Level >= 1, Node = index within the level.
type NodeKey struct {
	TreeLing int
	Level    int
	Node     int
}

// GlobalTreeLing marks keys in the globally shared tree.
const GlobalTreeLing = -1

// LevelNFL marks NFL (node free list) blocks, which sit outside the tree
// levels but are per-TreeLing metadata all the same.
const LevelNFL = -1

// Audit accounts every metadata touch by (domain, TreeLing, level, node),
// the empirical check behind the paper's isolation claim: under the
// IvLeague schemes no node may ever be touched by two different domains,
// while the shared global tree of the baseline (and the upper levels
// reachable through swapped pages under static partitioning) show exactly
// the cross-domain sharing the side channel exploits.
//
// The audit deliberately covers integrity metadata only: counter blocks
// and PTE blocks are statically addressed per-frame/per-domain, and cache
// eviction writebacks of other domains' victims are hardware artifacts,
// not metadata *uses* by the accessing domain.
// Touches are keyed by (NodeKey, epoch): Recycle bumps a TreeLing's epoch
// when its hardware state is re-initialized on domain teardown, so the
// legitimate reuse of a recycled TreeLing by a new owner is not counted as
// sharing — the physical node is shared across *time*, but its contents
// were reset, which is exactly the hardware re-initialization the paper
// relies on to prevent cross-domain replay. Touches in different epochs of
// the same node never alias.
type Audit struct {
	nodes  map[epochKey]*nodeTouches
	epochs map[int]int // TreeLing → current epoch (missing = 0)
	total  uint64
}

type epochKey struct {
	key   NodeKey
	epoch int
}

type nodeTouches struct {
	first    int // first domain to touch the node
	byDomain map[int]uint64
}

// NewAudit creates an empty audit.
func NewAudit() *Audit {
	return &Audit{nodes: make(map[epochKey]*nodeTouches), epochs: make(map[int]int)}
}

// Touch records that domain used the metadata node identified by key.
func (a *Audit) Touch(domain int, key NodeKey) {
	a.total++
	ek := epochKey{key: key, epoch: a.Epoch(key.TreeLing)}
	nt := a.nodes[ek]
	if nt == nil {
		nt = &nodeTouches{first: domain, byDomain: make(map[int]uint64, 1)}
		a.nodes[ek] = nt
	}
	nt.byDomain[domain]++
}

// Recycle marks a TreeLing's hardware state as re-initialized (domain
// teardown returned it to the unassigned FIFO). Subsequent touches of its
// nodes start a fresh epoch and do not alias pre-recycle touches. The
// global tree (GlobalTreeLing) is never recycled.
func (a *Audit) Recycle(treeling int) {
	if treeling == GlobalTreeLing {
		return
	}
	a.epochs[treeling]++
}

// Epoch returns a TreeLing's current recycle epoch.
func (a *Audit) Epoch(treeling int) int {
	if treeling == GlobalTreeLing {
		return 0
	}
	return a.epochs[treeling]
}

// Report summarizes an audit.
type Report struct {
	Domains      int    // distinct domains that touched any metadata
	Nodes        int    // distinct metadata nodes touched
	TotalTouches uint64 // all recorded touches
	// SharedNodes counts nodes touched by more than one domain, and
	// CrossDomainTouches the touches on such nodes by any domain other
	// than the node's first toucher. Both must be zero for an isolated
	// scheme.
	SharedNodes        int
	CrossDomainTouches uint64
}

// Report computes the audit summary.
func (a *Audit) Report() Report {
	r := Report{Nodes: len(a.nodes), TotalTouches: a.total}
	domains := map[int]bool{}
	for _, nt := range a.nodes {
		for d := range nt.byDomain {
			domains[d] = true
		}
		if len(nt.byDomain) > 1 {
			r.SharedNodes++
			for d, n := range nt.byDomain {
				if d != nt.first {
					r.CrossDomainTouches += n
				}
			}
		}
	}
	r.Domains = len(domains)
	return r
}

// Isolated reports whether no metadata node was touched by two domains.
func (r Report) Isolated() bool {
	return r.SharedNodes == 0 && r.CrossDomainTouches == 0
}

// String renders the report for CLI output.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "isolation audit: %d domains, %d metadata nodes, %d touches\n",
		r.Domains, r.Nodes, r.TotalTouches)
	fmt.Fprintf(&b, "  shared nodes:         %d\n", r.SharedNodes)
	fmt.Fprintf(&b, "  cross-domain touches: %d\n", r.CrossDomainTouches)
	if r.Isolated() {
		b.WriteString("  ISOLATED: no metadata node was touched by more than one domain")
	} else {
		b.WriteString("  SHARED: metadata nodes are reachable from multiple domains")
	}
	return b.String()
}

// SharedKeys returns the keys of nodes touched by more than one domain
// within one recycle epoch, in (TreeLing, Level, Node) order — the
// diagnostic trail when an IvLeague scheme unexpectedly shares.
func (a *Audit) SharedKeys() []NodeKey {
	var keys []NodeKey
	for ek, nt := range a.nodes {
		if len(nt.byDomain) > 1 {
			keys = append(keys, ek.key)
		}
	}
	sortKeys(keys)
	return keys
}

func sortKeys(keys []NodeKey) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.TreeLing != b.TreeLing {
			return a.TreeLing < b.TreeLing
		}
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		return a.Node < b.Node
	})
}

// TouchRecord is one (node, epoch, domain) touch count in an Export dump.
type TouchRecord struct {
	Key    NodeKey
	Epoch  int
	Domain int
	Count  uint64
}

// Export returns every recorded touch in canonical (TreeLing, Level, Node,
// Epoch, Domain) order, the model checker's raw view for per-state
// ownership cross-checks.
func (a *Audit) Export() []TouchRecord {
	var recs []TouchRecord
	for ek, nt := range a.nodes {
		for d, n := range nt.byDomain {
			recs = append(recs, TouchRecord{Key: ek.key, Epoch: ek.epoch, Domain: d, Count: n})
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Key != b.Key {
			if a.Key.TreeLing != b.Key.TreeLing {
				return a.Key.TreeLing < b.Key.TreeLing
			}
			if a.Key.Level != b.Key.Level {
				return a.Key.Level < b.Key.Level
			}
			return a.Key.Node < b.Key.Node
		}
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		return a.Domain < b.Domain
	})
	return recs
}
