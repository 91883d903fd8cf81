package cache

import (
	"testing"

	"repro/internal/addr"
)

// tinyConfig is a hierarchy whose L1 is 2 sets × 2 ways of 64B lines, so
// a handful of accesses exercises its LRU; the outer levels are large
// enough that nothing the tests touch is evicted from them.
func tinyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:          Config{SizeBytes: 256, Ways: 2, LineBytes: 64, Latency: 1},
		L2:          Config{SizeBytes: 64 * addr.KB, Ways: 8, LineBytes: 64, Latency: 10},
		L3:          Config{SizeBytes: 256 * addr.KB, Ways: 16, LineBytes: 64, Latency: 40},
		DRAMLatency: 100,
	}
}

func TestHitAfterFill(t *testing.T) {
	h := NewHierarchy(tinyConfig())
	pa := addr.PhysAddr(0x1000)
	if lat := h.Access(pa); lat != 100 {
		t.Fatalf("cold access latency = %d, want 100 (DRAM fill)", lat)
	}
	if lat := h.Access(pa); lat != 1 {
		t.Fatalf("access after fill latency = %d, want 1 (L1 hit)", lat)
	}
	// Same line, different byte.
	if lat := h.Access(pa + 63); lat != 1 {
		t.Fatalf("same-line access latency = %d, want 1", lat)
	}
	if lat := h.Access(pa + 64); lat != 100 {
		t.Fatalf("next-line access latency = %d, want 100", lat)
	}
	if got, want := h.Level(0).Stats(), (Stats{Hits: 2, Misses: 2}); got != want {
		t.Errorf("L1 stats = %+v, want %+v", got, want)
	}
}

func TestLRUEviction(t *testing.T) {
	h := NewHierarchy(tinyConfig())
	// Three lines mapping to the same L1 set (stride = sets*64 = 128).
	a, b, d := addr.PhysAddr(0), addr.PhysAddr(128), addr.PhysAddr(256)
	h.Access(a)
	h.Access(b)
	h.Access(a) // make a MRU
	h.Access(d) // evicts b (LRU) from L1
	if lat := h.Access(a); lat != 1 {
		t.Errorf("MRU line evicted: latency %d", lat)
	}
	if lat := h.Access(d); lat != 1 {
		t.Errorf("new line missing: latency %d", lat)
	}
	if lat := h.Access(b); lat != 10 {
		t.Errorf("LRU line: latency %d, want 10 (evicted from L1, still in L2)", lat)
	}
	if got, want := h.Level(0).Stats(), (Stats{Hits: 3, Misses: 4}); got != want {
		t.Errorf("L1 stats = %+v, want %+v", got, want)
	}
	if got, want := h.Level(1).Stats(), (Stats{Hits: 1, Misses: 3}); got != want {
		t.Errorf("L2 stats = %+v, want %+v", got, want)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(TableIII())
	pa := addr.PhysAddr(0x40000)
	if lat := h.Access(pa); lat != 200 {
		t.Errorf("cold access latency = %d, want 200 (DRAM)", lat)
	}
	if lat := h.Access(pa); lat != 2 {
		t.Errorf("hot access latency = %d, want 2 (L1)", lat)
	}
	if h.DRAMAccesses() != 1 {
		t.Errorf("DRAM accesses = %d", h.DRAMAccesses())
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := NewHierarchy(TableIII())
	target := addr.PhysAddr(0)
	h.Access(target)
	// Evict target from L1 (32KB, 8w, 64 sets): touch 8 conflicting lines
	// at stride 64*64 = 4KB.
	for i := 1; i <= 8; i++ {
		h.Access(target + addr.PhysAddr(i*32*1024))
	}
	lat := h.Access(target)
	if lat != 16 {
		t.Errorf("latency after L1 eviction = %d, want 16 (L2)", lat)
	}
}

func TestStatsCount(t *testing.T) {
	h := NewHierarchy(TableIII())
	h.Access(0x1000)
	h.Access(0x1000)
	l1 := h.Level(0).Stats()
	if l1.Hits != 1 || l1.Misses != 1 {
		t.Errorf("L1 stats = %+v", l1)
	}
}
