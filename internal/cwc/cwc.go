// Package cwc models the Cuckoo Walk Tables and Cuckoo Walk Caches of ECPT,
// which ME-HPT inherits: small MMU caches that record, per virtual-address
// region, which ways of which page-size HPT can hold a translation, so a
// hardware walk probes (ideally) a single memory location.
//
// The model is functional: the authoritative "which way holds it" answer
// comes from the page table itself; the CWC decides only whether the walker
// *knows* that answer up front (CWC hit — one targeted probe) or must first
// fetch the CWT entry from memory (CWC miss — one extra memory access).
// This captures the latency structure the paper relies on, including hiding
// the L2P access behind the CWC lookup (Section V-D, Figure 7).
package cwc

import (
	"repro/internal/addr"
)

// Latency is the CWC round-trip in cycles (Table III: PMD-CWC and PUD-CWC
// are both 4 cycles). The ME-HPT L2P access (shift + access + mask, 4
// cycles) is fully overlapped with this, so it never appears separately on
// the walk path.
const Latency = 4

// cwtBase is a synthetic physical region where CWT entries notionally live;
// it only needs to be distinct from data/page-table addresses so that cache
// interactions are realistic.
const cwtBase = addr.PhysAddr(1) << 45

// small is a tiny fully-associative LRU cache of region tags.
type small struct {
	entries int
	tags    []uint64
}

//mehpt:hotpath
func (c *small) lookup(tag uint64) bool {
	for i, t := range c.tags {
		if t == tag+1 {
			copy(c.tags[1:i+1], c.tags[:i])
			c.tags[0] = tag + 1
			return true
		}
	}
	return false
}

//mehpt:hotpath
func (c *small) insert(tag uint64) {
	if c.lookup(tag) {
		return
	}
	if len(c.tags) < c.entries {
		c.tags = append(c.tags, 0) //mehpt:allow hotalloc -- one-time warm-up growth up to c.entries, amortized to zero
	}
	copy(c.tags[1:], c.tags)
	c.tags[0] = tag + 1
}

// Stats counts walker cache behaviour.
type Stats struct {
	Hits, Misses uint64
}

// Walker is the CWC pair: a PMD-grain cache (2MB regions, 16 entries) and a
// PUD-grain cache (1GB regions, 2 entries), per Table III.
type Walker struct {
	pmd, pud small
	stats    Stats
}

// New returns a walker with the paper's CWC geometry.
func New() *Walker {
	return &Walker{pmd: small{entries: 16}, pud: small{entries: 2}}
}

// Probe consults the CWCs for va. On a hit the walker already knows the
// candidate (page size, way) set and pays only the CWC latency. On a miss
// it must also fetch the CWT entry from memory; the returned address is
// that extra access (to be priced by the cache hierarchy). Probing fills
// the caches, as the subsequent CWT fetch would.
//
//mehpt:hotpath
func (w *Walker) Probe(va addr.VirtAddr) (hit bool, cwtFetch addr.PhysAddr, lat uint64) {
	pmdRegion := uint64(va) >> addr.Page2M.Shift()
	pudRegion := uint64(va) >> addr.Page1G.Shift()
	if w.pmd.lookup(pmdRegion) || w.pud.lookup(pudRegion) {
		w.stats.Hits++
		return true, 0, Latency
	}
	w.stats.Misses++
	w.pmd.insert(pmdRegion)
	w.pud.insert(pudRegion)
	return false, cwtBase + addr.PhysAddr(pmdRegion*8), Latency
}

// Invalidate drops the region covering va (page-size change, unmap).
func (w *Walker) Invalidate(va addr.VirtAddr) {
	pmdRegion := uint64(va) >> addr.Page2M.Shift()
	for i, t := range w.pmd.tags {
		if t == pmdRegion+1 {
			w.pmd.tags = append(w.pmd.tags[:i], w.pmd.tags[i+1:]...)
			break
		}
	}
}

// Flush empties both CWCs. CWT contents are per address space and the
// walker caches carry no ASID, so a context switch must drop them. The tag
// slices are truncated in place, keeping the flush allocation-free.
func (w *Walker) Flush() {
	w.pmd.tags = w.pmd.tags[:0]
	w.pud.tags = w.pud.tags[:0]
}

// Stats returns hit/miss counters.
func (w *Walker) Stats() Stats { return w.stats }
