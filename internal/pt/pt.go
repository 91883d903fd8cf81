// Package pt holds the types shared by all three page-table organizations
// (radix, ECPT, ME-HPT): clustered page-table entries, the slab that backs
// them, and the walk-accounting structures the MMU turns into cycles.
//
// Hashed page tables in this repository use *page-table entry clustering*
// (Yaniv & Tsafrir, adopted by ECPT): one table slot is a 64-byte cache line
// holding the translations of 8 contiguous virtual pages, with the hash tag
// compacted into unused PTE bits. Clustering restores spatial locality and
// makes the tag memory-free, which is what makes HPTs competitive.
package pt

import "repro/internal/addr"

// EntryBytes is the size of one clustered HPT slot: a 64-byte cache line.
const EntryBytes = 64

// ClusterSpan is the number of contiguous virtual pages covered by one
// clustered entry.
const ClusterSpan = 8

// ClusterKey returns the hash key of the cluster containing vpn: the VPN
// with the intra-cluster bits stripped.
func ClusterKey(vpn addr.VPN) uint64 { return uint64(vpn) / ClusterSpan }

// SubIndex returns vpn's slot within its cluster.
func SubIndex(vpn addr.VPN) uint { return uint(uint64(vpn) % ClusterSpan) }

// BaseVPN returns the first VPN covered by the cluster with the given key.
func BaseVPN(key uint64) addr.VPN { return addr.VPN(key * ClusterSpan) }

// WalkAhead is the walk-ahead window: the most virtual addresses one
// Prefetch call of a page table reads ahead for. Sixteen hashed walks are
// about 64 independent host loads (W slots and a cluster each), more than
// a host core keeps in flight; it is the only window the walk-ahead has
// been measured with (DESIGN.md, "Hot path & performance model").
const WalkAhead = 16

// Cluster is the payload of one clustered entry: up to 8 translations.
type Cluster struct {
	ValidMask uint8
	PPNs      [ClusterSpan]addr.PPN
}

// Set stores a translation in slot sub.
func (c *Cluster) Set(sub uint, ppn addr.PPN) {
	c.PPNs[sub] = ppn
	c.ValidMask |= 1 << sub
}

// Get returns the translation in slot sub, if valid.
func (c *Cluster) Get(sub uint) (addr.PPN, bool) {
	if c.ValidMask&(1<<sub) == 0 {
		return 0, false
	}
	return c.PPNs[sub], true
}

// Clear invalidates slot sub and reports whether the cluster became empty.
func (c *Cluster) Clear(sub uint) bool {
	c.ValidMask &^= 1 << sub
	c.PPNs[sub] = 0
	return c.ValidMask == 0
}

// Empty reports whether no slot is valid.
func (c *Cluster) Empty() bool { return c.ValidMask == 0 }

// Count returns the number of valid translations.
func (c *Cluster) Count() int {
	n := 0
	for m := c.ValidMask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Slab stores cluster payloads and hands out stable 64-bit ids that fit in a
// cuckoo table's value word. Clusters never move: a pointer from At stays
// valid across later Allocs. The zero value is ready to use.
type Slab struct {
	Arena[Cluster]
}

// Touch reads the first and last word of each cluster in ids — every host
// cache line a 72-byte cluster can span — and folds them into the result,
// which the caller keeps so the loads are not optimized away. It is the
// second stage of the hashed page tables' walk-ahead and writes nothing.
//
//mehpt:hotpath
func (s *Slab) Touch(ids []uint64) uint64 {
	var sink uint64
	for _, id := range ids {
		c := s.At(id)
		sink += uint64(c.ValidMask) + uint64(c.PPNs[ClusterSpan-1])
	}
	return sink
}

// Step is one sequential stage of a page walk. Accesses within a step are
// issued in parallel (e.g. probing all HPT ways at once); the walk latency
// of a step is the maximum of its access latencies.
type Step struct {
	// Parallel lists the physical addresses of memory accesses issued
	// concurrently in this step. An empty step models a fixed-latency
	// hardware stage and contributes only ExtraCycles.
	Parallel []addr.PhysAddr
	// ExtraCycles is fixed latency added to this step (hash units,
	// indirection tables, cache-structure round trips).
	ExtraCycles uint64
}

// Walk describes the memory behaviour of one page-table walk so the MMU can
// price it against the cache hierarchy.
type Walk struct {
	Steps []Step
	PPN   addr.PPN
	Size  addr.PageSize
	Found bool
}

// Translation is a completed address translation.
type Translation struct {
	PPN  addr.PPN
	Size addr.PageSize
}
