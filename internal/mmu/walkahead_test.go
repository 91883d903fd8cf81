package mmu

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/pt"
)

// spread returns n page addresses in distinct 2MB regions, so each has a
// radix leaf node of its own and none shares a TLB entry.
func spread(n int) []addr.VirtAddr {
	vas := make([]addr.VirtAddr, n)
	for i := range vas {
		vas[i] = addr.VirtAddr(0x40_0000_0000) + addr.VirtAddr(i)<<21 + addr.VirtAddr(i%512)<<12
	}
	return vas
}

// TestWalkAheadTrigger pins when lookupBatch hands out a walk-ahead window:
// only at the walkAheadRun-th access in a row to miss every TLB, only when
// no earlier window covers it, and never across a TLB hit or a flush.
func TestWalkAheadTrigger(t *testing.T) {
	m, _, _ := newRadixMMU(t)
	vas := spread(80)
	var pas [BatchWidth]addr.PhysAddr
	call := func(from, wantN int) []addr.VirtAddr {
		t.Helper()
		n, _, _, window := m.lookupBatch(vas[from:], pas[:])
		if n != wantN {
			t.Fatalf("lookupBatch(vas[%d:]) resolved %d, want %d", from, n, wantN)
		}
		return window
	}
	for from := 0; from < walkAheadRun-1; from++ {
		if w := call(from, 0); w != nil {
			t.Fatalf("miss %d of a run got a window of %d, want none", from+1, len(w))
		}
	}
	start := walkAheadRun - 1
	if w := call(start, 0); len(w) != pt.WalkAhead || &w[0] != &vas[start] {
		t.Fatalf("miss %d of a run got a window of %d, want vas[%d:%d]", walkAheadRun, len(w), start, start+pt.WalkAhead)
	}
	for from := start + 1; from < start+pt.WalkAhead; from++ {
		if w := call(from, 0); w != nil {
			t.Fatalf("vas[%d] is already covered, got a window of %d", from, len(w))
		}
	}
	if w := call(start+pt.WalkAhead, 0); len(w) != pt.WalkAhead {
		t.Fatalf("first uncovered miss of the run got a window of %d, want %d", len(w), pt.WalkAhead)
	}

	// A TLB hit ends the run: the next window needs walkAheadRun misses again.
	m.FlushTranslation()
	m.TLB.Insert(vas[40], addr.Page4K, 1)
	for from := 37; from < 40; from++ {
		call(from, 0)
	}
	if w := call(40, 1); w != nil {
		t.Fatalf("miss right after a hit got a window of %d, want none", len(w))
	}
	for from := 42; from < 40+walkAheadRun; from++ {
		if w := call(from, 0); w != nil {
			t.Fatalf("miss %d after a hit got a window of %d, want none", from-40, len(w))
		}
	}
	if w := call(40+walkAheadRun, 0); len(w) != min(pt.WalkAhead, len(vas)-40-walkAheadRun) {
		t.Fatalf("window of %d, want %d", len(w), min(pt.WalkAhead, len(vas)-40-walkAheadRun))
	}

	// A flush ends the run too.
	for from := 60; from < 63; from++ {
		call(from, 0)
	}
	m.FlushTranslation()
	if w := call(63, 0); w != nil {
		t.Fatalf("first miss after a flush got a window of %d, want none", len(w))
	}
}

// TestWalkAheadGates: the walk-ahead skips tables small enough to stay in
// the host's caches and addresses an L2 TLB already holds, and neither the
// gated nor the trigger path allocates.
func TestWalkAheadGates(t *testing.T) {
	m, table, _ := newRadixMMU(t)
	vas := spread(4200)
	walkAll := func() {
		var pas [BatchWidth]addr.PhysAddr
		for off := 0; off < len(vas); {
			batch := vas[off:min(off+BatchWidth, len(vas))]
			n, _, missLat := m.TranslateBatchPAs(batch, pas[:])
			off += n
			if n < len(batch) {
				m.TranslateWalk(batch[n], missLat)
				off++
			}
		}
	}
	for i, va := range vas[:64] {
		if _, err := table.Map(va.PageNumber(addr.Page4K), addr.Page4K, addr.PPN(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	walkAll()
	if m.hint != 0 {
		t.Fatalf("walk-ahead ran on a %d-byte table", table.FootprintBytes())
	}
	for i, va := range vas[64:] {
		if _, err := table.Map(va.PageNumber(addr.Page4K), addr.Page4K, addr.PPN(i+65)); err != nil {
			t.Fatal(err)
		}
	}
	if table.FootprintBytes() < walkAheadMinBytes {
		t.Fatalf("table holds %d bytes, want at least %d", table.FootprintBytes(), walkAheadMinBytes)
	}
	m.FlushTranslation()
	walkAll()
	if m.hint == 0 {
		t.Fatal("walk-ahead never ran on a table above the footprint gate")
	}
	m.Translate(vas[3])
	if got := m.walkAheadSet(vas[:8], walkAheadMinBytes); len(got) != 7 || got[2] != vas[2] || got[3] != vas[4] {
		t.Fatalf("walkAheadSet kept %x, want vas[:8] without the TLB-resident vas[3]", got)
	}
	if n := testing.AllocsPerRun(3, walkAll); n != 0 {
		t.Errorf("walking with the walk-ahead allocates %.1f times per pass, want 0", n)
	}
}

// TestWalkAheadAllocFreeHPT: with the walk-ahead forced on every miss, the
// hashed MMU's batch, walk-ahead and walk path never allocates.
func TestWalkAheadAllocFreeHPT(t *testing.T) {
	defer func(prev int) { walkAheadMode = prev }(walkAheadMode)
	walkAheadMode = walkAheadAlways
	m, table, _ := newHPTMMU(t)
	vas := spread(3000)
	for i, va := range vas {
		if _, err := table.Map(va.PageNumber(addr.Page4K), addr.Page4K, addr.PPN(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var pas [BatchWidth]addr.PhysAddr
	walkAll := func() {
		for off := 0; off < len(vas); {
			batch := vas[off:min(off+BatchWidth, len(vas))]
			n, _, missLat := m.TranslateBatchPAs(batch, pas[:])
			off += n
			if n < len(batch) {
				if r := m.TranslateWalk(batch[n], missLat); r.Fault {
					t.Fatalf("mapped %#x faulted", batch[n])
				}
				off++
			}
		}
	}
	walkAll()
	if m.hint == 0 {
		t.Fatal("forced walk-ahead never ran")
	}
	if n := testing.AllocsPerRun(3, walkAll); n != 0 {
		t.Errorf("walking with the walk-ahead allocates %.1f times per pass, want 0", n)
	}
}
