package tlb

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/addr"
)

// oracleEntry is one cached translation of the naive model.
type oracleEntry struct {
	vpn addr.VPN
	pay uint64
}

// oracleTLB is a deliberately naive set-associative LRU TLB: each set is a
// slice of entries, MRU first, rebuilt with slices.Insert and
// slices.Delete, and the set index is a plain modulo. It shares no code
// with TLB — no flat tag array, no VPN+1 tags, no mask, no promote2 — so a
// bug in the optimized structure's LRU or set indexing cannot hide in both.
type oracleTLB struct {
	sets    [][]oracleEntry
	ways    int
	latency uint64
	stats   Stats
}

func newOracleTLB(cfg Config) *oracleTLB {
	ways := cfg.Ways
	if ways <= 0 || ways > cfg.Entries {
		ways = cfg.Entries // fully associative
	}
	sets := max(cfg.Entries/ways, 1)
	return &oracleTLB{sets: make([][]oracleEntry, sets), ways: ways, latency: cfg.Latency}
}

func (t *oracleTLB) set(vpn addr.VPN) *[]oracleEntry {
	return &t.sets[uint64(vpn)%uint64(len(t.sets))]
}

func (t *oracleTLB) find(set []oracleEntry, vpn addr.VPN) int {
	return slices.IndexFunc(set, func(e oracleEntry) bool { return e.vpn == vpn })
}

func (t *oracleTLB) lookup(vpn addr.VPN) (uint64, bool) {
	set := t.set(vpn)
	k := t.find(*set, vpn)
	if k < 0 {
		t.stats.Misses++
		return 0, false
	}
	t.stats.Hits++
	e := (*set)[k]
	*set = slices.Insert(slices.Delete(*set, k, k+1), 0, e)
	return e.pay, true
}

func (t *oracleTLB) insert(vpn addr.VPN, pay uint64) {
	t.invalidate(vpn)
	set := t.set(vpn)
	*set = slices.Insert(*set, 0, oracleEntry{vpn, pay})
	if len(*set) > t.ways {
		*set = slices.Delete(*set, t.ways, len(*set))
	}
}

func (t *oracleTLB) invalidate(vpn addr.VPN) {
	set := t.set(vpn)
	if k := t.find(*set, vpn); k >= 0 {
		*set = slices.Delete(*set, k, k+1)
	}
}

// oracleHierarchy is the naive two-level, per-page-size model: for each
// page size in ascending order probe L1, then L2 (refilling L1 on an L2
// hit); a full miss costs the largest per-size L1+L2 latency.
type oracleHierarchy struct {
	l1, l2 [addr.NumPageSizes]*oracleTLB
}

func newOracleHierarchy(h *Hierarchy) *oracleHierarchy {
	o := &oracleHierarchy{}
	for s := range o.l1 {
		o.l1[s] = newOracleTLB(h.l1[s].cfg)
		o.l2[s] = newOracleTLB(h.l2[s].cfg)
	}
	return o
}

func (o *oracleHierarchy) lookup(va addr.VirtAddr) (r Result, pa addr.PhysAddr, lat uint64) {
	var miss uint64
	for _, s := range []addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G} {
		vpn := va.PageNumber(s)
		if pay, ok := o.l1[s].lookup(vpn); ok {
			return HitL1, addr.Translate(va, addr.PPN(pay), s), o.l1[s].latency
		}
		if pay, ok := o.l2[s].lookup(vpn); ok {
			o.l1[s].insert(vpn, pay)
			return HitL2, addr.Translate(va, addr.PPN(pay), s), o.l1[s].latency + o.l2[s].latency
		}
		miss = max(miss, o.l1[s].latency+o.l2[s].latency)
	}
	return MissAll, 0, miss
}

func (o *oracleHierarchy) insert(va addr.VirtAddr, s addr.PageSize, pay uint64) {
	o.l1[s].insert(va.PageNumber(s), pay)
	o.l2[s].insert(va.PageNumber(s), pay)
}

func (o *oracleHierarchy) invalidate(va addr.VirtAddr, s addr.PageSize) {
	o.l1[s].invalidate(va.PageNumber(s))
	o.l2[s].invalidate(va.PageNumber(s))
}

func (o *oracleHierarchy) flush() {
	for s := range o.l1 {
		for _, t := range []*oracleTLB{o.l1[s], o.l2[s]} {
			clear(t.sets)
		}
	}
}

// TestLookupBatchPAsMatchesOracle drives 10⁶ random references through
// LookupBatchPAs, in batches of random width (including wider than
// BatchWidth), and through the naive model one reference at a time. Every
// resolved reference must agree on its physical address, and every call on
// (n, L1 hits, latency sum, miss latency); after a full miss both sides
// insert the page, as the page walk would. Interleaved re-inserts (payload
// refresh), invalidations and flushes keep every path of the structures
// live, and every structure's Stats must match throughout.
func TestLookupBatchPAsMatchesOracle(t *testing.T) {
	const refs = 1_000_000
	h := NewTableIII()
	o := newOracleHierarchy(h)
	rng := rand.New(rand.NewSource(17))

	// 4K pages over working sets that fit L1, fit L2, and overflow it; 2M
	// pages in a region wider than their L1; a few 1G pages.
	const (
		base4K = addr.VirtAddr(0x4000_0000)
		base2M = addr.VirtAddr(0x80_0000_0000)
		base1G = addr.VirtAddr(0x100_0000_0000)
	)
	draw := func() addr.VirtAddr {
		switch r := rng.Intn(16); {
		case r < 4:
			return base4K + addr.VirtAddr(rng.Intn(48))*4096 + addr.VirtAddr(rng.Intn(4096))
		case r < 9:
			return base4K + addr.VirtAddr(rng.Intn(900))*4096 + addr.VirtAddr(rng.Intn(4096))
		case r < 13:
			return base4K + addr.VirtAddr(rng.Intn(1<<14))*4096
		case r < 15:
			return base2M + addr.VirtAddr(rng.Intn(96))*2*addr.MB + addr.VirtAddr(rng.Intn(1<<21))
		default:
			return base1G + addr.VirtAddr(rng.Intn(24))*addr.GB + addr.VirtAddr(rng.Intn(1<<30))
		}
	}
	epoch := uint64(0) // bumped on flushes so payloads change over time
	payFor := func(va addr.VirtAddr, s addr.PageSize) uint64 {
		return uint64(va.PageNumber(s))*7 + epoch
	}
	sizeOf := func(va addr.VirtAddr) addr.PageSize {
		switch {
		case va >= base1G:
			return addr.Page1G
		case va >= base2M:
			return addr.Page2M
		}
		return addr.Page4K
	}

	var vas [BatchWidth + 8]addr.VirtAddr
	var pas [BatchWidth + 8]addr.PhysAddr
	var results [HitL2 + 1]int // by Result; MissAll counts full misses
	for done := 0; done < refs; {
		switch r := rng.Intn(200); {
		case r == 0:
			h.Flush()
			o.flush()
			epoch++
			continue
		case r < 4:
			va := draw()
			s := sizeOf(va)
			h.Invalidate(va, s)
			o.invalidate(va, s)
			continue
		case r < 12:
			va := draw()
			s := sizeOf(va)
			h.Insert(va, s, payFor(va, s))
			o.insert(va, s, payFor(va, s))
			continue
		}
		k := 1 + rng.Intn(len(vas))
		for i := range vas[:k] {
			vas[i] = draw()
		}
		n, l1, latSum, missLat := h.LookupBatchPAs(vas[:k], pas[:k])
		var wantL1, wantLat uint64
		for i := 0; i < n; i++ {
			r, pa, lat := o.lookup(vas[i])
			if r == MissAll {
				t.Fatalf("ref %d (va %#x): batch resolved it, oracle misses", done+i, vas[i])
			}
			if pas[i] != pa {
				t.Fatalf("ref %d (va %#x): pa %#x, oracle %#x", done+i, vas[i], pas[i], pa)
			}
			if r == HitL1 {
				wantL1++
			}
			wantLat += lat
			results[r]++
		}
		if l1 != wantL1 || latSum != wantLat {
			t.Fatalf("after ref %d: batch (l1=%d lat=%d), oracle (l1=%d lat=%d)", done, l1, latSum, wantL1, wantLat)
		}
		done += n
		if want := min(k, BatchWidth); n < want {
			va := vas[n]
			r, _, lat := o.lookup(va)
			if r != MissAll {
				t.Fatalf("ref %d (va %#x): batch stopped there, oracle hits (%v)", done, va, r)
			}
			if missLat != lat {
				t.Fatalf("ref %d: miss latency %d, oracle %d", done, missLat, lat)
			}
			results[MissAll]++
			s := sizeOf(va)
			h.Insert(va, s, payFor(va, s))
			o.insert(va, s, payFor(va, s))
			done++
		} else if n != want || missLat != 0 {
			t.Fatalf("after ref %d: batch of %d resolved %d with miss latency %d", done, k, n, missLat)
		}
		for s := range h.l1 {
			if got, want := h.l1[s].Stats(), o.l1[s].stats; got != want {
				t.Fatalf("after ref %d: %v L1 stats %+v, oracle %+v", done, addr.PageSize(s), got, want)
			}
			if got, want := h.l2[s].Stats(), o.l2[s].stats; got != want {
				t.Fatalf("after ref %d: %v L2 stats %+v, oracle %+v", done, addr.PageSize(s), got, want)
			}
		}
	}
	for r, c := range results {
		if c < refs/100 {
			t.Errorf("outcome %v occurred %d times; the mix no longer exercises it", Result(r), c)
		}
	}
}
