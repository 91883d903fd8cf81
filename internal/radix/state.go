package radix

import (
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/phys"
)

// EntryState is one present radix entry. Child is an index into
// State.Nodes (-1 for leaves); absent entries are not recorded.
type EntryState struct {
	Idx   uint16
	Huge  bool
	Child int32
	PPN   addr.PPN
}

// NodeState is one tree node: its backing frame and its present entries.
type NodeState struct {
	Frame   addr.PPN
	Entries []EntryState
}

// State is the serializable form of a PageTable: the tree flattened
// pre-order into an indexed node list (node 0 is the root).
type State struct {
	Levels int
	Nodes  []NodeState
	Stats  Stats
}

// ErrBadState reports a State that Restore cannot turn into a tree.
var ErrBadState = errors.New("radix: malformed state")

// State returns a deep copy of the tree.
func (p *PageTable) State() State {
	st := State{Levels: p.levels, Stats: p.stats}
	var flatten func(id uint64, lvl int) int32
	flatten = func(id uint64, lvl int) int32 {
		n := p.nodes.At(id)
		idx := int32(len(st.Nodes))
		st.Nodes = append(st.Nodes, NodeState{Frame: n.frame})
		for i, e := range n.entries {
			if e&present == 0 {
				continue
			}
			es := EntryState{Idx: uint16(i), Huge: e&huge != 0, Child: -1}
			if lvl > 0 && isTable(e) {
				es.Child = flatten(target(e), lvl-1)
			} else {
				es.PPN = addr.PPN(target(e))
			}
			st.Nodes[idx].Entries = append(st.Nodes[idx].Entries, es)
		}
		return idx
	}
	if p.nodes.Live() > 0 {
		flatten(rootID, p.levels-1)
	}
	return st
}

// Restore rebuilds a tree from recorded state without allocating: the node
// frames in st are already owned in the restored allocator state. The
// state must describe a tree: node 0 is the root, every other node is the
// child of exactly one entry one level up, only present non-huge entries
// above level 0 have children, and those carry no PPN; huge leaves sit at
// the PMD or PUD level. Anything else is an ErrBadState, never a tree that
// double-frees, loops or panics later.
func Restore(st State, alloc phys.Source) (*PageTable, error) {
	if st.Levels < Levels || st.Levels > MaxLevels {
		return nil, fmt.Errorf("%w: unsupported depth %d", ErrBadState, st.Levels)
	}
	if err := validateTree(st); err != nil {
		return nil, err
	}
	p := &PageTable{levels: st.Levels, alloc: alloc, stats: st.Stats}
	for _, ns := range st.Nodes {
		n := p.nodes.At(p.nodes.Alloc())
		n.frame = ns.Frame
		for _, es := range ns.Entries {
			if es.Child >= 0 {
				n.entries[es.Idx] = tableEntry(uint64(es.Child))
			} else {
				n.entries[es.Idx] = leafEntry(es.PPN, es.Huge)
			}
			n.used++
		}
	}
	return p, nil
}

// validateTree checks that st's child links form one tree rooted at node 0
// and that every entry fits the node's level.
func validateTree(st State) error {
	if len(st.Nodes) == 0 {
		return nil
	}
	level := make([]int, len(st.Nodes))
	for i := range level {
		level[i] = -1
	}
	level[0] = st.Levels - 1
	stack := []int32{0}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lvl := level[i]
		prev := -1
		for _, es := range st.Nodes[i].Entries {
			if int(es.Idx) >= EntriesPerNode {
				return fmt.Errorf("%w: entry index %d out of range", ErrBadState, es.Idx)
			}
			if int(es.Idx) <= prev {
				return fmt.Errorf("%w: node %d entry %d out of order", ErrBadState, i, es.Idx)
			}
			prev = int(es.Idx)
			c := es.Child
			switch {
			case c < 0:
				if lvl > 0 && !es.Huge {
					return fmt.Errorf("%w: node %d entry %d: present table entry without child", ErrBadState, i, es.Idx)
				}
				if es.Huge && (lvl == 0 || lvl > 2) {
					return fmt.Errorf("%w: node %d entry %d: huge leaf at level %d", ErrBadState, i, es.Idx, lvl)
				}
				if es.PPN > maxPPN {
					return fmt.Errorf("%w: node %d entry %d: PPN %d does not fit an entry", ErrBadState, i, es.Idx, es.PPN)
				}
				continue
			case lvl == 0 || es.Huge:
				return fmt.Errorf("%w: node %d entry %d: child on a leaf entry", ErrBadState, i, es.Idx)
			case int(c) >= len(st.Nodes):
				return fmt.Errorf("%w: child index %d out of range", ErrBadState, c)
			case c == 0:
				return fmt.Errorf("%w: node %d entry %d references the root", ErrBadState, i, es.Idx)
			case level[c] >= 0:
				return fmt.Errorf("%w: node %d referenced twice", ErrBadState, c)
			case es.PPN != 0:
				return fmt.Errorf("%w: node %d entry %d: child entry with PPN %d", ErrBadState, i, es.Idx, es.PPN)
			}
			level[c] = lvl - 1
			stack = append(stack, c)
		}
	}
	for i, l := range level {
		if l < 0 {
			return fmt.Errorf("%w: node %d unreachable from the root", ErrBadState, i)
		}
	}
	return nil
}

// VisitOwnedFrames reports every physical frame the tree owns — one 4KB
// node frame per tree node. The scrubber uses it to prove frame-ownership
// disjointness across tenants.
func (p *PageTable) VisitOwnedFrames(f func(base addr.PPN, bytes uint64)) {
	var walk func(id uint64, lvl int)
	walk = func(id uint64, lvl int) {
		n := p.nodes.At(id)
		f(n.frame, 4*addr.KB)
		if lvl == 0 {
			return
		}
		for _, e := range n.entries {
			if isTable(e) {
				walk(target(e), lvl-1)
			}
		}
	}
	if p.nodes.Live() > 0 {
		walk(rootID, p.levels-1)
	}
}

// VisitMappings calls f for every live translation (vpn, size, ppn).
func (p *PageTable) VisitMappings(f func(vpn addr.VPN, s addr.PageSize, ppn addr.PPN)) {
	var walk func(id uint64, lvl int, va uint64)
	walk = func(id uint64, lvl int, va uint64) {
		for i, e := range p.nodes.At(id).entries {
			if e&present == 0 {
				continue
			}
			sub := va | uint64(i)<<(12+9*uint(lvl))
			if lvl == 0 || e&huge != 0 {
				f(addr.VPN(sub>>(12+9*uint(lvl))), sizeAtLevel(lvl), addr.PPN(target(e)))
				continue
			}
			walk(target(e), lvl-1, sub)
		}
	}
	if p.nodes.Live() > 0 {
		walk(rootID, p.levels-1, 0)
	}
}

// CheckTree runs the structural consistency checks the scrubber reports:
// per-node used counters must match the present entries, huge leaves may
// only appear at PMD/PUD levels, and the stats node count must equal the
// reachable tree. It returns one message per violation.
func (p *PageTable) CheckTree() []string {
	var bad []string
	reachable := 0
	var walk func(id uint64, lvl int)
	walk = func(id uint64, lvl int) {
		reachable++
		n := p.nodes.At(id)
		live := 0
		for i, e := range n.entries {
			if e&present == 0 {
				continue
			}
			live++
			if e&huge != 0 && (lvl == 0 || lvl > 2) {
				bad = append(bad, fmt.Sprintf("huge leaf at level %d entry %d", lvl, i))
			}
			if lvl > 0 && isTable(e) {
				walk(target(e), lvl-1)
			}
		}
		if live != n.used {
			bad = append(bad, fmt.Sprintf("node frame %d at level %d: used %d but %d present entries", n.frame, lvl, n.used, live))
		}
	}
	if p.nodes.Live() > 0 {
		walk(rootID, p.levels-1)
	}
	if reachable != p.stats.Nodes {
		bad = append(bad, fmt.Sprintf("stats record %d nodes, tree reaches %d", p.stats.Nodes, reachable))
	}
	return bad
}
