// Package cache models the data-cache hierarchy of the evaluated machine
// (Table III): private L1 and L2, a shared L3, and DRAM behind them. The
// model is latency-only: an access returns the round-trip cycles of the
// level that hits. Both workload data accesses and page-walk accesses go
// through it, so radix walks benefit from page-table locality and hashed
// walks pay for its absence — the first-order effect behind Figure 9.
package cache

import "repro/internal/addr"

// Config describes one cache level.
type Config struct {
	SizeBytes uint64
	Ways      int
	LineBytes uint64
	Latency   uint64 // round-trip cycles from the core on a hit
}

// Stats counts accesses for one level.
type Stats struct {
	Hits, Misses uint64
}

// Cache is one set-associative LRU cache level.
//
// Tags live in a single flat set-major array (sets × ways), MRU first
// within each set, 0 marking an empty slot (tags are stored as line+1).
// Empty slots are always a suffix of their set — fills push at the front —
// so probes stop at the first zero. The flat layout replaces the per-set
// []uint64 slices whose append-growth was the second-largest allocation
// source on the simulator's hot path.
type Cache struct {
	cfg      Config
	sets     uint64
	setMask  uint64 // sets-1 when sets is a power of two, else 0
	lineBits uint
	ways     int
	tags     []uint64 // sets × ways, set-major; 0 = empty
	stats    Stats
}

// newLevel creates a cache level. Sets are derived from size/ways/line;
// the set count need not be a power of two (Table III's 12-way L2 TLB
// layout made that a requirement elsewhere too).
func newLevel(cfg Config) Cache {
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / uint64(cfg.Ways)
	if sets == 0 {
		sets = 1
	}
	c := Cache{cfg: cfg, sets: sets, ways: cfg.Ways}
	if sets&(sets-1) == 0 {
		c.setMask = sets - 1
	}
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		c.lineBits++
	}
	c.tags = make([]uint64, sets*uint64(cfg.Ways))
	return c
}

// set returns the tag slots of the set holding line ln. Table III's
// geometries are all power-of-two set counts, so the modulo reduces to the
// precomputed mask on the hot path.
func (c *Cache) set(ln uint64) []uint64 {
	var si uint64
	if c.setMask != 0 || c.sets == 1 {
		si = ln & c.setMask
	} else {
		si = ln % c.sets
	}
	base := si * uint64(c.ways)
	return c.tags[base : base+uint64(c.ways)]
}

// probe scans set once for want. On a hit it returns want's slot and true;
// on a miss it returns the set's valid-slot count — the position a fill of
// want starts from — and false. Empties are a suffix of the set, so the
// scan stops at the first zero.
func probe(set []uint64, want uint64) (int, bool) {
	for i, tag := range set {
		if tag == want {
			return i, true
		}
		if tag == 0 {
			return i, false
		}
	}
	return len(set), false
}

// promote moves set[i] to the MRU front. The explicit backward shift
// replaces copy(): promotion distances are tiny (usually one slot), where a
// memmove call costs more than the move itself.
//
//go:inline
func promote(set []uint64, i int) {
	want := set[i]
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = want
}

// fillFront inserts want at the MRU front of a set whose first n slots are
// valid, dropping the LRU tail when full.
//
//go:inline
func fillFront(set []uint64, want uint64, n int) {
	if n == len(set) {
		n-- // set full: shifting right drops the LRU tail
	}
	for ; n > 0; n-- {
		set[n] = set[n-1]
	}
	set[0] = want
}

// Stats returns the hit/miss counters.
func (c *Cache) Stats() Stats { return c.stats }

// Hierarchy is the full L1/L2/L3/DRAM stack. The three levels are stored
// by value in one array so the per-access walk stays on one cache line of
// metadata and never chases heap pointers.
type Hierarchy struct {
	levels [3]Cache
	//mehpt:transient -- fixed geometry parameter; RestoreHierarchy re-derives it from the caller's HierarchyConfig
	dramLatency uint64
	dramHits    uint64
}

// HierarchyConfig parameterizes NewHierarchy.
type HierarchyConfig struct {
	L1, L2, L3  Config
	DRAMLatency uint64
}

// TableIII returns the paper's memory-system configuration: 32KB/8-way L1
// (2 cyc), 512KB/8-way L2 (16 cyc), 2MB/16-way L3 per core (56 cyc avg),
// 200-cycle DRAM, 64B lines.
func TableIII() HierarchyConfig {
	return HierarchyConfig{
		L1:          Config{SizeBytes: 32 * addr.KB, Ways: 8, LineBytes: 64, Latency: 2},
		L2:          Config{SizeBytes: 512 * addr.KB, Ways: 8, LineBytes: 64, Latency: 16},
		L3:          Config{SizeBytes: 2 * addr.MB, Ways: 16, LineBytes: 64, Latency: 56},
		DRAMLatency: 200,
	}
}

// NewHierarchy builds the stack.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		levels:      [3]Cache{newLevel(cfg.L1), newLevel(cfg.L2), newLevel(cfg.L3)},
		dramLatency: cfg.DRAMLatency,
	}
}

// Access performs one memory access and returns its round-trip latency.
// It walks the levels from L1 outward, scanning each level's set once: a
// hit promotes the line to MRU and ends the walk; a miss records the set
// and its fill position, which the scan has already found. The levels that
// missed are then refilled at those positions (inclusive hierarchy) —
// from the level that hit, or from DRAM when every level missed.
//
//mehpt:hotpath
func (h *Hierarchy) Access(pa addr.PhysAddr) uint64 {
	var sets [len(h.levels)][]uint64
	var wants [len(h.levels)]uint64
	var fill [len(h.levels)]int
	lat := h.dramLatency
	hit := len(h.levels)
	for i := range h.levels {
		c := &h.levels[i]
		want := uint64(pa)>>c.lineBits + 1
		set := c.set(want - 1)
		j, ok := probe(set, want)
		if ok {
			promote(set, j)
			c.stats.Hits++
			lat, hit = c.cfg.Latency, i
			break
		}
		c.stats.Misses++
		sets[i], wants[i], fill[i] = set, want, j
	}
	if hit == len(h.levels) {
		h.dramHits++
	}
	for i := 0; i < hit; i++ {
		fillFront(sets[i], wants[i], fill[i])
	}
	return lat
}

// AccessBatch performs one memory access per element of pas in order,
// writing each access's round-trip latency into lats[i].
//
//mehpt:hotpath
func (h *Hierarchy) AccessBatch(pas []addr.PhysAddr, lats []uint64) {
	for i, pa := range pas {
		lats[i] = h.Access(pa)
	}
}

// AccessPT performs a page-walker memory access. Page-table lines are
// modeled as effectively uncached in the data hierarchy: hardware walkers do
// not allocate into the core's L1/L2, and in the paper's 8-core full-system
// environment the shared L3 is churned by seven other cores' traffic, so
// page-table lines rarely survive between walks. The dedicated translation
// caches (radix PWCs, cuckoo CWCs) are the structures that compensate —
// exactly why a four-access sequential radix walk is materially slower than
// a single hashed probe (Figure 9's mechanism, and Section I's point that
// tree walks cannot exploit memory-level parallelism).
//
//mehpt:hotpath
func (h *Hierarchy) AccessPT(pa addr.PhysAddr) uint64 {
	_ = pa
	h.dramHits++
	return h.dramLatency
}

// DRAMAccesses returns the number of accesses that reached memory.
func (h *Hierarchy) DRAMAccesses() uint64 { return h.dramHits }

// Level returns cache level i (0 = L1), for stats inspection.
func (h *Hierarchy) Level(i int) *Cache { return &h.levels[i] }
