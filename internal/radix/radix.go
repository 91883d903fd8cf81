// Package radix implements the x86-64 radix-tree page table the paper uses
// as its conventional baseline: a four-level tree (PGD → PUD → PMD → PTE)
// walked sequentially, with 2MB and 1GB leaves for huge pages (Figure 1).
//
// Each tree node occupies one 4KB physical frame, so the radix organization
// never needs more than page-sized contiguous allocations — the property
// Table I's column 3 highlights.
package radix

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/phys"
	"repro/internal/pt"
)

// Levels is the default depth of the tree: PGD(3), PUD(2), PMD(1), PTE(0).
// Five-level paging (Intel's LA57, the paper's Section I scalability
// concern) adds a P4D root above the PGD.
const Levels = 4

// MaxLevels is the deepest supported tree (5-level paging).
const MaxLevels = 5

// EntriesPerNode is the fan-out of each level: 512 8-byte entries per 4KB
// node.
const EntriesPerNode = 512

// entryBytes is the size of one radix PTE in memory.
const entryBytes = 8

// leafLevel returns the tree level at which a page of size s terminates:
// PTE for 4KB, PMD for 2MB, PUD for 1GB.
func leafLevel(s addr.PageSize) int {
	switch s {
	case addr.Page4K:
		return 0
	case addr.Page2M:
		return 1
	case addr.Page1G:
		return 2
	}
	panic(fmt.Sprintf("radix: invalid page size %v", s))
}

// An entry is one 8-byte word laid out like an x86-64 PTE: bit 0 is the
// present bit, bit 7 (PS) marks a huge leaf, and bits 12 and up hold a
// leaf's PPN or, for an entry that points down the tree, the child node's
// arena id. A level-0 entry is always a leaf.
const (
	present   uint64 = 1 << 0
	huge      uint64 = 1 << 7
	addrShift        = 12
	// maxPPN is the largest PPN an entry can hold.
	maxPPN = 1<<(64-addrShift) - 1
)

func leafEntry(ppn addr.PPN, isHuge bool) uint64 {
	e := uint64(ppn)<<addrShift | present
	if isHuge {
		e |= huge
	}
	return e
}

func tableEntry(child uint64) uint64 { return child<<addrShift | present }

// target returns an entry's PPN (leaf) or child node id (table entry).
func target(e uint64) uint64 { return e >> addrShift }

// isTable reports whether e points to a child node, given that e sits
// above level 0.
func isTable(e uint64) bool { return e&(present|huge) == present }

// node is one tree node: 4KB of entries, exactly the frame it models, plus
// the frame's number and the present-entry count. It holds no pointers, so
// the collector never scans a page table.
type node struct {
	entries [EntriesPerNode]uint64
	frame   addr.PPN // physical frame backing this node
	used    int      // number of present entries, for teardown accounting
}

// rootID is the root's arena id: the root is the first node allocated and
// is only freed with the whole tree.
const rootID = 0

// Stats aggregates the allocation behaviour of the tree.
type Stats struct {
	Nodes              int // tree nodes (4KB frames) currently allocated
	PeakNodes          int
	AllocCycles        uint64
	MaxContiguousAlloc uint64 // always 4KB by construction
}

// PageTable is one process's radix-tree page table. Nodes live in an
// arena and refer to each other by id; the root is id 0, and an empty arena
// means the tree has been freed.
type PageTable struct {
	nodes  pt.Arena[node]
	levels int
	//mehpt:transient -- Restore reattaches the separately restored physical allocator
	alloc phys.Source
	stats Stats
}

// NewPageTable creates an empty four-level tree with just the root node.
func NewPageTable(alloc phys.Source) (*PageTable, error) {
	return NewPageTableLevels(alloc, Levels)
}

// NewPageTableLevels creates a tree of the given depth (4 = x86-64, 5 =
// LA57). A deeper tree covers more virtual address space at the cost of
// one more dependent memory access per uncached walk — the scalability
// trend the paper argues against.
func NewPageTableLevels(alloc phys.Source, levels int) (*PageTable, error) {
	if levels < Levels || levels > MaxLevels {
		return nil, fmt.Errorf("radix: unsupported depth %d", levels)
	}
	p := &PageTable{alloc: alloc, levels: levels}
	if _, err := p.newNode(); err != nil {
		return nil, err
	}
	return p, nil
}

// Depth returns the tree depth (4 or 5).
func (p *PageTable) Depth() int { return p.levels }

// newNode allocates a node and its 4KB frame and returns the node's id.
func (p *PageTable) newNode() (uint64, error) {
	ppn, cycles, err := p.alloc.Alloc(4 * addr.KB)
	p.stats.AllocCycles += cycles
	if err != nil {
		return 0, err
	}
	p.stats.Nodes++
	if p.stats.Nodes > p.stats.PeakNodes {
		p.stats.PeakNodes = p.stats.Nodes
	}
	p.stats.MaxContiguousAlloc = 4 * addr.KB
	id := p.nodes.Alloc()
	p.nodes.At(id).frame = ppn
	return id, nil
}

// Stats returns the accumulated statistics.
func (p *PageTable) Stats() Stats { return p.stats }

// FootprintBytes returns the page-table memory held: one 4KB frame per node.
func (p *PageTable) FootprintBytes() uint64 {
	return uint64(p.stats.Nodes) * 4 * addr.KB
}

// PeakFootprintBytes returns the high-water mark of FootprintBytes.
func (p *PageTable) PeakFootprintBytes() uint64 {
	return uint64(p.stats.PeakNodes) * 4 * addr.KB
}

// MaxContiguousAlloc returns 4KB: the radix tree's whole appeal.
func (p *PageTable) MaxContiguousAlloc() uint64 { return p.stats.MaxContiguousAlloc }

// AllocCycles returns the cycles spent allocating tree nodes.
func (p *PageTable) AllocCycles() uint64 { return p.stats.AllocCycles }

// Moves returns the number of page-table entries relocated by the
// organization — always 0 for radix, by construction: a PTE's slot is fixed
// by its virtual address (the radix indices), the tree grows by allocating
// fresh nodes without touching existing entries, and there is no rehashing.
// Hashed organizations report nonzero counts here because elastic resizing
// migrates entries between tables (sim.Result.PTMoves, Figure 13).
func (p *PageTable) Moves() uint64 { return 0 }

// Map installs vpn→ppn at the given page size, allocating intermediate
// nodes as needed. It returns the allocation cycle cost.
func (p *PageTable) Map(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) (uint64, error) {
	if ppn > maxPPN {
		return 0, fmt.Errorf("radix: PPN %d does not fit an entry", ppn)
	}
	va := vpn.Addr(s)
	leaf := leafLevel(s)
	before := p.stats.AllocCycles
	n := p.nodes.At(rootID)
	for lvl := p.levels - 1; lvl > leaf; lvl-- {
		e := &n.entries[addr.RadixIndex(va, lvl)]
		if *e&present == 0 {
			child, err := p.newNode()
			if err != nil {
				return p.stats.AllocCycles - before, err
			}
			*e = tableEntry(child)
			n.used++
		} else if *e&huge != 0 {
			return 0, fmt.Errorf("radix: %v mapping overlaps huge page at level %d", s, lvl)
		}
		n = p.nodes.At(target(*e))
	}
	e := &n.entries[addr.RadixIndex(va, leaf)]
	if *e&present == 0 {
		n.used++
	} else if leaf > 0 && isTable(*e) {
		// Huge-page promotion over an existing lower-level table (THP
		// collapse): release the subtree it replaces.
		p.freeSubtree(target(*e), leaf-1)
	}
	*e = leafEntry(ppn, leaf > 0)
	return p.stats.AllocCycles - before, nil
}

// freeSubtree releases node id and all tree nodes below it, children
// first.
func (p *PageTable) freeSubtree(id uint64, lvl int) {
	n := p.nodes.At(id)
	if lvl > 0 {
		for _, e := range n.entries {
			if isTable(e) {
				p.freeSubtree(target(e), lvl-1)
			}
		}
	}
	p.alloc.Free(n.frame, 4*addr.KB)
	p.nodes.Free(id)
	p.stats.Nodes--
}

// Unmap removes the translation for vpn at the given page size. Like Linux,
// intermediate nodes are not eagerly freed.
func (p *PageTable) Unmap(vpn addr.VPN, s addr.PageSize) (uint64, bool) {
	va := vpn.Addr(s)
	leaf := leafLevel(s)
	n := p.nodes.At(rootID)
	for lvl := p.levels - 1; lvl > leaf; lvl-- {
		e := n.entries[addr.RadixIndex(va, lvl)]
		if !isTable(e) {
			return 0, false
		}
		n = p.nodes.At(target(e))
	}
	e := &n.entries[addr.RadixIndex(va, leaf)]
	if *e&present == 0 || (leaf > 0) != (*e&huge != 0) {
		return 0, false
	}
	*e = 0
	n.used--
	return 0, true
}

// Translate resolves va by walking the tree.
//
//mehpt:hotpath
func (p *PageTable) Translate(va addr.VirtAddr) (pt.Translation, bool) {
	n := p.nodes.At(rootID)
	for lvl := p.levels - 1; lvl >= 0; lvl-- {
		e := n.entries[addr.RadixIndex(va, lvl)]
		if e&present == 0 {
			return pt.Translation{}, false
		}
		if lvl == 0 || e&huge != 0 {
			return pt.Translation{PPN: addr.PPN(target(e)), Size: sizeAtLevel(lvl)}, true
		}
		n = p.nodes.At(target(e))
	}
	return pt.Translation{}, false
}

func sizeAtLevel(lvl int) addr.PageSize {
	switch lvl {
	case 0:
		return addr.Page4K
	case 1:
		return addr.Page2M
	case 2:
		return addr.Page1G
	}
	panic("radix: no page size at PGD level")
}

// TranslateSize resolves vpn at exactly the given page size.
//
//mehpt:hotpath
func (p *PageTable) TranslateSize(vpn addr.VPN, s addr.PageSize) (addr.PPN, bool) {
	tr, ok := p.Translate(vpn.Addr(s))
	if !ok || tr.Size != s {
		return 0, false
	}
	return tr.PPN, true
}

// WalkAddrs returns the physical addresses of the page-table entries a
// hardware walker reads for va, root first. The walk stops early at a huge
// leaf or a non-present entry. The boolean reports whether a translation
// was found.
func (p *PageTable) WalkAddrs(va addr.VirtAddr) ([]addr.PhysAddr, pt.Translation, bool) {
	return p.AppendWalkAddrs(nil, va)
}

// AppendWalkAddrs is WalkAddrs appending to a caller-supplied buffer — a
// walk is at most MaxLevels accesses, so a caller that reuses a scratch
// buffer of that capacity walks without allocating. This matters: the walk
// ran once per TLB miss and was the simulator's largest allocation source.
//
//mehpt:hotpath
func (p *PageTable) AppendWalkAddrs(pas []addr.PhysAddr, va addr.VirtAddr) ([]addr.PhysAddr, pt.Translation, bool) {
	n := p.nodes.At(rootID)
	for lvl := p.levels - 1; lvl >= 0; lvl-- {
		idx := addr.RadixIndex(va, lvl)
		pas = append(pas, n.frame.Addr(addr.Page4K)+addr.PhysAddr(uint64(idx)*entryBytes)) //mehpt:allow hotalloc -- appends into caller-owned scratch; steady state never grows it
		e := n.entries[idx]
		if e&present == 0 {
			return pas, pt.Translation{}, false
		}
		if lvl == 0 || e&huge != 0 {
			return pas, pt.Translation{PPN: addr.PPN(target(e)), Size: sizeAtLevel(lvl)}, true
		}
		n = p.nodes.At(target(e))
	}
	return pas, pt.Translation{}, false
}

// Prefetch is the MMU's walk-ahead: it descends the tree for up to
// pt.WalkAhead of vas one level at a time, reading each level's entries for
// the whole window before the next, so the window's node loads at one
// level overlap instead of queueing behind one sequential walk each. It
// writes nothing, so the simulation cannot observe it. The result folds the
// loaded entries together; the caller keeps it so the loads are not
// optimized away.
//
//mehpt:hotpath
func (p *PageTable) Prefetch(vas []addr.VirtAddr) uint64 {
	if len(vas) > pt.WalkAhead {
		vas = vas[:pt.WalkAhead]
	}
	var ids [pt.WalkAhead]uint64 // node each walk reads at the current level; the root is id 0
	live := uint32(1)<<len(vas) - 1
	var sink uint64
	for lvl := p.levels - 1; lvl >= 0 && live != 0; lvl-- {
		for i, va := range vas {
			if live&(1<<i) == 0 {
				continue
			}
			n := p.nodes.At(ids[i])
			e := n.entries[addr.RadixIndex(va, lvl)]
			sink += e + uint64(n.frame) // the walk reads the node's frame too
			if lvl == 0 || !isTable(e) {
				live &^= 1 << i
				continue
			}
			ids[i] = target(e)
		}
	}
	return sink
}

// NodeFrameAt returns the physical frame of the tree node traversed at the
// given level for va (Levels-1 = root), and whether the walk reaches it.
// It exposes the tree's shape to tests and tools; the MMU's page-walk
// caches key on VA prefixes, not on node frames (mmu.pwc).
func (p *PageTable) NodeFrameAt(va addr.VirtAddr, lvl int) (addr.PPN, bool) {
	n := p.nodes.At(rootID)
	for l := p.levels - 1; l > lvl; l-- {
		e := n.entries[addr.RadixIndex(va, l)]
		if !isTable(e) {
			return 0, false
		}
		n = p.nodes.At(target(e))
	}
	return n.frame, true
}

// Free releases every tree node (process teardown).
func (p *PageTable) Free() {
	if p.nodes.Live() > 0 {
		p.freeSubtree(rootID, p.levels-1)
	}
	p.nodes = pt.Arena[node]{}
}
