// Package mmu composes the TLB hierarchy, the page-walk machinery (radix
// page-walk caches or cuckoo walk caches), and the data-cache hierarchy
// into the address-translation front end the simulator drives.
//
// Two MMU variants exist, one per page-table family:
//
//   - Radix: sequential tree walk, accelerated by three page-walk caches
//     (PWCs) that skip upper levels (Table III: 3 × 32 entries, 4 cyc).
//   - HPT (ECPT or ME-HPT): parallel cuckoo-way probes, pruned by the CWCs;
//     the ME-HPT L2P access is overlapped with the CWC lookup (Section V-D)
//     so both variants see the same walk-latency structure.
package mmu

import (
	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/cwc"
	"repro/internal/hashfn"
	"repro/internal/pt"
	"repro/internal/radix"
	"repro/internal/tlb"
)

// Result is the outcome of one translation.
type Result struct {
	PA     addr.PhysAddr
	Size   addr.PageSize
	Cycles uint64
	Fault  bool // no translation: the OS must handle a page fault
}

// Stats aggregates translation behaviour.
type Stats struct {
	Translations uint64
	L1Hits       uint64
	L2Hits       uint64
	Walks        uint64
	WalkCycles   uint64
	Faults       uint64
}

// HPTPageTable is the interface both ecpt.PageTable and mehpt.PageTable
// satisfy: what the MMU and the multi-tenant scheduler call on a hashed
// page table.
type HPTPageTable interface {
	//mehpt:hotpath
	Translate(va addr.VirtAddr) (pt.Translation, bool)
	// Walk resolves va on the TLB-miss path: one probe sweep yields the
	// translation and the physical address of the winning way's probe.
	//mehpt:hotpath
	Walk(va addr.VirtAddr) (pt.Translation, addr.PhysAddr, bool)
	// Prefetch is the read-only walk-ahead (see front.lookupBatch).
	//mehpt:hotpath
	Prefetch(vas []addr.VirtAddr) uint64
	//mehpt:hotpath
	FootprintBytes() uint64
}

// walkAheadRun is how many consecutive accesses must miss every TLB before
// the walk-ahead runs. A walk-bound stream (GUPS) keeps such runs going for
// tens of accesses; in a TLB-friendly one (BFS) most misses are isolated or
// come in pairs, and the window after them would mostly hit the TLB.
const walkAheadRun = 4

// walkAheadMinBytes gates the walk-ahead on the bound page table's
// footprint. A smaller table stays in the host's caches, where reading
// ahead only adds work. The simulated footprint stands in for the host
// one: a radix node is a 4 KB frame, and a hashed table's host slots and
// clusters are about the size of the 64-byte slots it models.
const walkAheadMinBytes = 16 << 20

// walkAheadMode selects when the walk-ahead runs. Only tests change it
// (export_test.go), to show that the simulation cannot observe it.
var walkAheadMode = walkAheadGated

const (
	walkAheadGated  = iota // a run of misses on a large table
	walkAheadAlways        // every call that stops at a miss
	walkAheadOff
)

// front is the translation front end both MMU variants share: the TLB
// hierarchy, the data-cache hierarchy walks go through, and the counters.
// Each variant adds only its page walk.
type front struct {
	TLB   *tlb.Hierarchy
	Mem   *cache.Hierarchy
	stats Stats

	// The walk-ahead's hint state decides only which host memory is read
	// early; no simulated result depends on it.
	//mehpt:transient -- walk-ahead hint, host-only; Bind and FlushTranslation reset it
	run int // consecutive accesses, up to the last full miss, that missed every TLB
	//mehpt:transient -- walk-ahead hint, host-only; Bind and FlushTranslation reset it
	ahead int // leading elements of the next call's vas already covered
	//mehpt:transient -- walk-ahead sink, host-only; keeps the compiler from dropping the loads
	hint uint64
	//mehpt:transient -- walk-ahead scratch, dead between calls
	aheadBuf [pt.WalkAhead]addr.VirtAddr
}

// Stats returns translation counters.
func (f *front) Stats() Stats { return f.stats }

// RestoreStats reinstates translation counters captured by Stats. The
// checkpoint serializes only the counters: the TLBs, CWCs, and PWCs are
// flushed at every quantum boundary by Bind, so a round-boundary snapshot
// never needs their contents.
func (f *front) RestoreStats(s Stats) { f.stats = s }

// lookup is the TLB half of a scalar Translate. TLB hits complete from the
// cached payload (the PPN stored at insert time, as hardware does); the
// page table is only probed on the walk path. TLB coherence — every
// resident entry resolves in the bound table with the same PPN — is the
// scrubber-enforced invariant that makes the payload trustworthy. On a
// full miss it returns false and a Result carrying only the miss latency.
//
//mehpt:hotpath
func (f *front) lookup(va addr.VirtAddr) (Result, bool) {
	f.stats.Translations++
	r, s, pay, lat := f.TLB.LookupVA(va)
	switch r {
	case tlb.HitL1:
		f.stats.L1Hits++
	case tlb.HitL2:
		f.stats.L2Hits++
	default:
		return Result{Cycles: lat}, false
	}
	return Result{PA: addr.Translate(va, addr.PPN(pay), s), Size: s, Cycles: lat}, true
}

// lookupBatch resolves the longest TLB-hit prefix of vas, software-
// pipelined through tlb.Hierarchy.LookupBatchPAs: resolved elements land in
// pas as physical addresses, and it returns the resolved count n and their
// summed translation cycles. State updates, statistics, and timing are
// bit-identical to n scalar Translate calls.
//
// When n < len(vas), element n missed every TLB: its probes have been
// performed and counted, and the caller must finish it with
// TranslateWalk(vas[n], missLat) — handling a fault exactly as it would on
// a scalar Translate — before resuming the batch at n+1. A page walk ends
// the batch because it touches the data-cache hierarchy, whose state the
// caller's pending data accesses also touch; everything before it commutes
// (TLB hits touch only TLB state). At most tlb.BatchWidth elements are
// consumed per call.
//
// The last result is the walk-ahead window, or nil. Each walk is a chain of
// dependent host cache misses (slot, then cluster; or one node per radix
// level), so a run of walks waits on them one after another. When vas[n]
// is the walkAheadRun-th access in a row to miss every TLB, and no earlier
// window covers it, the window is vas[n:n+16]: the variant reads ahead for
// its addresses that no L2 TLB holds in one pass (Prefetch), so their host
// misses overlap and the walks that follow find their lines in the host
// cache. Shorter runs do not trigger it, since the accesses after them
// mostly hit the TLB; each address is read ahead at most once.
//
//mehpt:hotpath
func (f *front) lookupBatch(vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64, []addr.VirtAddr) {
	if len(vas) > tlb.BatchWidth {
		vas = vas[:tlb.BatchWidth]
	}
	n, l1, latSum, missLat := f.TLB.LookupBatchPAs(vas, pas)
	f.stats.Translations += uint64(n)
	f.stats.L1Hits += l1
	f.stats.L2Hits += uint64(n) - l1
	if n == len(vas) {
		f.run = 0
		f.ahead = max(f.ahead-n, 0)
		return n, latSum, missLat, nil
	}
	f.stats.Translations++ // element n entered translation; its walk is the caller's
	if n > 0 {
		f.run = 0 // vas[n-1] hit
	}
	f.run++
	var window []addr.VirtAddr
	switch {
	case walkAheadMode == walkAheadAlways,
		walkAheadMode == walkAheadGated && f.run >= walkAheadRun && f.ahead <= n:
		window = vas[n:min(n+pt.WalkAhead, len(vas))]
		f.ahead = n + len(window)
	}
	f.ahead = max(f.ahead-(n+1), 0) // the caller resumes at n+1
	return n, latSum, missLat, window
}

// walkAheadSet returns the addresses of window that no L2 TLB holds — the
// ones the bound table's Prefetch should read ahead for — or nil when the
// table's footprint is too small for the host to miss on it.
//
//mehpt:hotpath
func (f *front) walkAheadSet(window []addr.VirtAddr, footprint uint64) []addr.VirtAddr {
	if footprint < walkAheadMinBytes && walkAheadMode != walkAheadAlways {
		return nil
	}
	k := 0
	for _, va := range window {
		if !f.TLB.Resident(va) {
			f.aheadBuf[k] = va
			k++
		}
	}
	return f.aheadBuf[:k]
}

// resetWalkAhead drops the walk-ahead's hint state when the address space
// or its translations change.
func (f *front) resetWalkAhead() {
	f.run = 0
	f.ahead = 0
}

// HPT is the MMU for hashed page tables.
type HPT struct {
	front
	Table HPTPageTable
	CWC   *cwc.Walker
}

// NewHPT wires an HPT MMU with Table III structures.
func NewHPT(table HPTPageTable, mem *cache.Hierarchy) *HPT {
	return &HPT{
		front: front{TLB: tlb.NewTableIII(), Mem: mem},
		Table: table,
		CWC:   cwc.New(),
	}
}

// TranslateBatchPAs resolves the longest TLB-hit prefix of vas into pas and
// returns the resolved count, their summed cycles, and the next element's
// full-miss latency; see front.lookupBatch for the contract. In a run of
// misses it first reads the table ahead for the next walks.
//
//mehpt:hotpath
func (m *HPT) TranslateBatchPAs(vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64) {
	n, latSum, missLat, window := m.lookupBatch(vas, pas)
	if len(window) > 0 {
		if ahead := m.walkAheadSet(window, m.Table.FootprintBytes()); len(ahead) > 0 {
			m.hint += m.Table.Prefetch(ahead)
		}
	}
	return n, latSum, missLat
}

// Translate resolves va, modelling the full latency of TLB lookup and, on a
// miss, the hashed page walk.
//
//mehpt:hotpath
func (m *HPT) Translate(va addr.VirtAddr) Result {
	r, hit := m.lookup(va)
	if hit {
		return r
	}
	return m.TranslateWalk(va, r.Cycles)
}

// TranslateWalk performs the hashed page walk after a full TLB miss whose
// accumulated (parallel-probe) miss latency is tlbLat. It completes the
// element a TranslateBatchPAs call stopped at, whose TLB probes already ran
// (and were counted) inside the batch, so calling Translate instead would
// double-count them; pass the miss latency TranslateBatchPAs returned. It
// is also the walk half of Translate, which keeps the two paths' results
// and stats bit-identical.
//
// CRC hash units run in parallel with the CWC lookup (both fixed-latency);
// the ME-HPT L2P access hides behind the CWC as well (Section V-D), so the
// pre-probe latency is max(hash, CWC) = CWC.
//
//mehpt:hotpath
func (m *HPT) TranslateWalk(va addr.VirtAddr, tlbLat uint64) Result {
	m.stats.Walks++
	walk := uint64(hashfn.Latency)
	hit, cwtPA, cwcLat := m.CWC.Probe(va)
	if cwcLat > walk {
		walk = cwcLat
	}
	if !hit {
		// The CWT is compact metadata (8B per 2MB region) that lives in the
		// regular cache hierarchy and caches well, unlike page-table lines.
		walk += m.Mem.Access(cwtPA)
	}
	tr, probePA, ok := m.Table.Walk(va)
	if !ok {
		// The CWT indicates no translation at any size: fault without
		// probing the HPTs.
		m.stats.Faults++
		m.stats.WalkCycles += walk
		return Result{Cycles: tlbLat + walk, Fault: true}
	}
	walk += m.Mem.AccessPT(probePA)
	m.stats.WalkCycles += walk
	m.TLB.Insert(va, tr.Size, uint64(tr.PPN))
	return Result{
		PA:     addr.Translate(va, tr.PPN, tr.Size),
		Size:   tr.Size,
		Cycles: tlbLat + walk,
	}
}

// Invalidate drops TLB and CWC state for va (unmap, page-size promotion).
func (m *HPT) Invalidate(va addr.VirtAddr, s addr.PageSize) {
	m.TLB.Invalidate(va, s)
	m.CWC.Invalidate(va)
}

// FlushTranslation empties the TLBs and CWCs — the per-address-space
// translation state a no-ASID context switch must drop. The data-cache
// hierarchy is untouched: it is physically indexed and belongs to the core,
// not the address space.
func (m *HPT) FlushTranslation() {
	m.TLB.Flush()
	m.CWC.Flush()
	m.resetWalkAhead()
}

// Bind retargets this MMU shard at a new address space: table becomes the
// walk target and all translation caches are flushed. The multi-tenant
// scheduler calls this at every quantum boundary, so one MMU instance per
// core serves hundreds of processes.
func (m *HPT) Bind(table HPTPageTable) {
	m.Table = table
	m.FlushTranslation()
}

// pwc is one page-walk cache level: fully associative over VA prefixes.
type pwc struct {
	shift   uint
	entries int
	tags    []uint64
}

//mehpt:hotpath
func (c *pwc) lookup(va addr.VirtAddr) bool {
	tag := uint64(va) >> c.shift
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
func (c *pwc) insert(va addr.VirtAddr) {
	if c.lookup(va) {
		return
	}
	if len(c.tags) < c.entries {
		c.tags = append(c.tags, 0) //mehpt:allow hotalloc -- one-time warm-up growth up to c.entries, amortized to zero
	}
	copy(c.tags[1:], c.tags)
	c.tags[0] = uint64(va)>>c.shift + 1
}

// pwcLatency is the PWC round trip (Table III: 4 cycles).
const pwcLatency = 4

// Radix is the MMU for the radix-tree baseline.
type Radix struct {
	front
	Table *radix.PageTable
	// pwcs[0] caches PMD entries (skip to PTE), [1] PUD entries (skip to
	// PMD), [2] PGD entries (skip to PUD).
	pwcs [3]pwc
	// walkBuf is the scratch buffer AppendWalkAddrs fills on every TLB
	// miss; a walk touches at most MaxLevels entries, so the steady-state
	// walk path never allocates.
	walkBuf [radix.MaxLevels]addr.PhysAddr
}

// NewRadix wires a radix MMU with Table III structures: 3 PWC levels of 32
// entries each.
func NewRadix(table *radix.PageTable, mem *cache.Hierarchy) *Radix {
	m := &Radix{front: front{TLB: tlb.NewTableIII(), Mem: mem}, Table: table}
	m.pwcs[0] = pwc{shift: 21, entries: 32} // PMD entry: covers 2MB
	m.pwcs[1] = pwc{shift: 30, entries: 32} // PUD entry: covers 1GB
	m.pwcs[2] = pwc{shift: 39, entries: 32} // PGD entry: covers 512GB
	return m
}

// TranslateBatchPAs is HPT.TranslateBatchPAs for the radix tree.
//
//mehpt:hotpath
func (m *Radix) TranslateBatchPAs(vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64) {
	n, latSum, missLat, window := m.lookupBatch(vas, pas)
	if len(window) > 0 {
		if ahead := m.walkAheadSet(window, m.Table.FootprintBytes()); len(ahead) > 0 {
			m.hint += m.Table.Prefetch(ahead)
		}
	}
	return n, latSum, missLat
}

// Translate resolves va through the TLBs and, on a miss, a sequential tree
// walk whose upper levels the PWCs can skip.
//
//mehpt:hotpath
func (m *Radix) Translate(va addr.VirtAddr) Result {
	r, hit := m.lookup(va)
	if hit {
		return r
	}
	return m.TranslateWalk(va, r.Cycles)
}

// TranslateWalk performs the radix tree walk after a full TLB miss with
// accumulated miss latency tlbLat; see HPT.TranslateWalk for the contract.
//
//mehpt:hotpath
func (m *Radix) TranslateWalk(va addr.VirtAddr, tlbLat uint64) Result {
	m.stats.Walks++
	pas, tr, ok := m.Table.AppendWalkAddrs(m.walkBuf[:0], va)
	// The PWCs are probed in parallel: skip the deepest cached prefix.
	skip := 0
	switch {
	case m.pwcs[0].lookup(va):
		skip = 3 // PGD, PUD, PMD entries cached: only the PTE access remains
	case m.pwcs[1].lookup(va):
		skip = 2
	case m.pwcs[2].lookup(va):
		skip = 1
	}
	if skip > len(pas)-1 {
		skip = len(pas) - 1 // always perform at least the final access
	}
	walk := uint64(pwcLatency)
	for _, pa := range pas[skip:] {
		walk += m.Mem.AccessPT(pa) // sequential: latencies add up
	}
	m.stats.WalkCycles += walk
	if !ok {
		m.stats.Faults++
		return Result{Cycles: tlbLat + walk, Fault: true}
	}
	// Refill the PWCs with the prefixes this walk resolved.
	if len(pas) >= 2 {
		m.pwcs[2].insert(va)
	}
	if len(pas) >= 3 {
		m.pwcs[1].insert(va)
	}
	if len(pas) >= 4 {
		m.pwcs[0].insert(va)
	}
	m.TLB.Insert(va, tr.Size, uint64(tr.PPN))
	return Result{
		PA:     addr.Translate(va, tr.PPN, tr.Size),
		Size:   tr.Size,
		Cycles: tlbLat + walk,
	}
}

// Invalidate drops TLB state for va.
func (m *Radix) Invalidate(va addr.VirtAddr, s addr.PageSize) {
	m.TLB.Invalidate(va, s)
}

// FlushTranslation empties the TLBs and PWCs (no-ASID context switch); the
// physically-indexed data caches stay with the core.
func (m *Radix) FlushTranslation() {
	m.TLB.Flush()
	for i := range m.pwcs {
		m.pwcs[i].tags = m.pwcs[i].tags[:0]
	}
	m.resetWalkAhead()
}

// Bind retargets this MMU shard at a new address space, flushing all
// translation caches.
func (m *Radix) Bind(table *radix.PageTable) {
	m.Table = table
	m.FlushTranslation()
}

// MMU is the interface the simulator drives; both variants satisfy it.
// The access loop calls TranslateBatchPAs once per batch, TranslateWalk
// once per TLB miss, and Translate only to retry a serviced fault.
type MMU interface {
	//mehpt:hotpath
	Translate(va addr.VirtAddr) Result
	//mehpt:hotpath
	TranslateBatchPAs(vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64)
	//mehpt:hotpath
	TranslateWalk(va addr.VirtAddr, missLat uint64) Result
	Invalidate(va addr.VirtAddr, s addr.PageSize)
	Stats() Stats
}

// BatchWidth is the translation pipeline width; batch callers size their
// buffers to it. Re-exported from the TLB layer, which anchors the value.
const BatchWidth = tlb.BatchWidth
