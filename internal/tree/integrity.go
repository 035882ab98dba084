package tree

import (
	"fmt"
	"strings"
)

// Violation names a class of integrity fault as seen by the verification
// layer. It describes what the verifier *observed*, which is not always
// the fault that was injected: a tampered counter block, for example, is
// detected as a hash mismatch on the level-1 tree link.
type Violation string

const (
	// ViolationTreeNode is a stored tree-node slot that disagrees with
	// the hash recomputed from below it on the verification path.
	ViolationTreeNode Violation = "tree-node"
	// ViolationRoot is a mismatch against the on-chip root register —
	// the last link of every walk, and the one rollback attacks hit.
	ViolationRoot Violation = "root"
	// ViolationMAC is a per-block MAC mismatch on the data read path.
	ViolationMAC Violation = "mac"
	// ViolationNFL is a corrupted Node Free-List entry observed at
	// allocation time (a slot offered as free while the tree metadata
	// records it occupied).
	ViolationNFL Violation = "nfl"
	// ViolationTorn is an internally inconsistent persisted tree image
	// discovered during crash recovery (a torn metadata write).
	ViolationTorn Violation = "torn-state"
)

// IntegrityError is the typed error every detected metadata fault
// surfaces as. It names the violation class, the IV domain and TreeLing
// (when known), the tree level and node/slot of the failing link, and the
// physical address of the implicated metadata. Layers fill in what they
// know: the tree layer sets class/TreeLing/level/address, secmem adds the
// owning domain, and sim/figures propagate the error without unwrapping.
type IntegrityError struct {
	Class    Violation
	Domain   int    // owning IV domain; -1 when unknown or not domain-scoped
	TreeLing int    // TreeLing ID; -1 for the global tree and MAC faults
	Level    int    // tree level of the failing link; -1 when not tree-scoped
	Node     int    // node index (top-down within a TreeLing); -1 unknown
	Slot     int    // slot within the node; -1 unknown
	Addr     uint64 // physical address of the implicated metadata; 0 unknown
	Detail   string // human-readable cause
	Err      error  // wrapped sentinel (e.g. secmem.ErrMACMismatch), may be nil
}

func (e *IntegrityError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "integrity: %s violation", e.Class)
	if e.Domain >= 0 {
		fmt.Fprintf(&b, ", domain %d", e.Domain)
	}
	if e.TreeLing >= 0 {
		fmt.Fprintf(&b, ", TreeLing %d", e.TreeLing)
	}
	if e.Level >= 0 {
		fmt.Fprintf(&b, ", level %d", e.Level)
	}
	if e.Node >= 0 {
		fmt.Fprintf(&b, ", node %d", e.Node)
		if e.Slot >= 0 {
			fmt.Fprintf(&b, " slot %d", e.Slot)
		}
	}
	if e.Addr != 0 {
		fmt.Fprintf(&b, ", addr %#x", e.Addr)
	}
	if e.Detail != "" {
		b.WriteString(": ")
		b.WriteString(e.Detail)
	}
	return b.String()
}

// Unwrap exposes a wrapped sentinel so errors.Is keeps working for
// callers that match on it (e.g. secmem.ErrMACMismatch).
func (e *IntegrityError) Unwrap() error { return e.Err }

// Details of the tree layer's violations.
const (
	leafMismatch = "stored slot disagrees with leaf hash"
	pathMismatch = "stored slot disagrees with recomputed path hash"
	rootMismatch = "top node disagrees with on-chip root"
	tornLink     = "persisted parent link disagrees with child hash (torn image)"
)

// newIntegrityError fills the fields common to the tree layer's checks;
// the domain is unknown down here and left for secmem to stamp.
func newIntegrityError(class Violation, tl, level, node, slot int, addr uint64, detail string) *IntegrityError {
	return &IntegrityError{
		Class:    class,
		Domain:   -1,
		TreeLing: tl,
		Level:    level,
		Node:     node,
		Slot:     slot,
		Addr:     addr,
		Detail:   detail,
	}
}
