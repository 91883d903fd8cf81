package cache

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
)

// batchTestPAs builds a physical-address stream mixing L1-resident reuse,
// an L2/L3-sized working set, and DRAM-wide strides, so every lane of the
// level walk (L1 hit, L2 hit, L3 hit, DRAM fill) is exercised.
func batchTestPAs(seed int64, n int) []addr.PhysAddr {
	rng := rand.New(rand.NewSource(seed))
	pas := make([]addr.PhysAddr, n)
	for i := range pas {
		switch rng.Intn(4) {
		case 0:
			pas[i] = addr.PhysAddr(rng.Intn(32)) * 64 // hot lines
		case 1:
			pas[i] = addr.PhysAddr(rng.Intn(1<<12)) * 64 // L2/L3 working set
		default:
			pas[i] = addr.PhysAddr(rng.Intn(1<<22)) * 64 // DRAM-heavy
		}
	}
	return pas
}

// TestAccessBatchMatchesScalar is the batched data path's differential twin:
// AccessBatch over arbitrary (including zero and single) segment lengths
// must produce the same latencies, hit/miss counters, and DRAM count as
// sequential Access calls on an identical hierarchy.
func TestAccessBatchMatchesScalar(t *testing.T) {
	scalar := NewHierarchy(TableIII())
	batch := NewHierarchy(TableIII())
	pas := batchTestPAs(3, 6000)
	segments := []int{0, 1, 5, 31, 64, 97, 200, 1}

	lats := make([]uint64, len(pas))
	pos, seg := 0, 0
	for pos < len(pas) {
		k := segments[seg%len(segments)]
		seg++
		if k > len(pas)-pos {
			k = len(pas) - pos
		}
		batch.AccessBatch(pas[pos:pos+k], lats[pos:pos+k])
		pos += k
	}
	for i, pa := range pas {
		want := scalar.Access(pa)
		if lats[i] != want {
			t.Fatalf("access %d (pa %#x): batch latency %d, scalar %d", i, pa, lats[i], want)
		}
	}
	for lvl := 0; lvl < 3; lvl++ {
		bs, ss := batch.Level(lvl).Stats(), scalar.Level(lvl).Stats()
		if bs != ss {
			t.Errorf("L%d stats diverge: batch %+v, scalar %+v", lvl+1, bs, ss)
		}
	}
	if batch.DRAMAccesses() != scalar.DRAMAccesses() {
		t.Errorf("DRAM accesses: batch %d, scalar %d", batch.DRAMAccesses(), scalar.DRAMAccesses())
	}
	// The warmed states must stay aligned, not just the counters: replaying
	// the stream once more must agree element-wise again.
	for _, pa := range pas[:500] {
		var one [1]uint64
		batch.AccessBatch([]addr.PhysAddr{pa}, one[:])
		if want := scalar.Access(pa); one[0] != want {
			t.Fatalf("post-warm access (pa %#x): batch %d, scalar %d", pa, one[0], want)
		}
	}
}

// TestAccessBatchAllocFree guards the batched data path: the level walk's
// per-access miss records live on the stack, so a full-width batch must
// not allocate.
func TestAccessBatchAllocFree(t *testing.T) {
	h := NewHierarchy(TableIII())
	pas := batchTestPAs(9, 64)
	lats := make([]uint64, len(pas))
	if n := testing.AllocsPerRun(1000, func() {
		h.AccessBatch(pas, lats)
	}); n != 0 {
		t.Errorf("AccessBatch allocates %v objects per call", n)
	}
}
