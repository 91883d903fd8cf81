package mmu

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
)

type vaMapper interface {
	Map(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) (uint64, error)
}

// batchPair builds two identical MMU+table pairs of the requested kind and
// maps the same pages into both: mapped 4K pages, a 2M page, and a deliberate
// unmapped hole so batches hit the fault path too.
func batchPair(t *testing.T, kind string) (a, b MMU, vas []addr.VirtAddr) {
	t.Helper()
	build := func() (MMU, vaMapper) {
		if kind == "Radix" {
			m, pt, _ := newRadixMMU(t)
			return m, pt
		}
		m, pt, _ := newHPTMMU(t)
		return m, pt
	}
	am, apt := build()
	bm, bpt := build()
	base := addr.VirtAddr(0x4000_0000)
	for i := 0; i < 512; i++ {
		va := base + addr.VirtAddr(i)*4096
		if _, err := apt.Map(va.PageNumber(addr.Page4K), addr.Page4K, addr.PPN(i+1)); err != nil {
			t.Fatal(err)
		}
		if _, err := bpt.Map(va.PageNumber(addr.Page4K), addr.Page4K, addr.PPN(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	huge := addr.VPN(0x8000_0000 >> 21)
	apt.Map(huge, addr.Page2M, 7777)
	bpt.Map(huge, addr.Page2M, 7777)

	rng := rand.New(rand.NewSource(11))
	vas = make([]addr.VirtAddr, 3000)
	for i := range vas {
		switch rng.Intn(10) {
		case 0: // unmapped hole: faults
			vas[i] = addr.VirtAddr(0x7000_0000) + addr.VirtAddr(rng.Intn(64))*4096
		case 1: // 2M page
			vas[i] = addr.VirtAddr(0x8000_0000) + addr.VirtAddr(rng.Intn(1<<21))
		default:
			vas[i] = base + addr.VirtAddr(rng.Intn(512))*4096
		}
	}
	return am, bm, vas
}

// TestTranslateBatchMatchesScalar: the batched entry point must be
// bit-identical to scalar Translate calls on an identically built MMU, for
// both MMU variants, across hit, miss, huge-page, and fault elements. Each
// resolved element's physical address, the summed cycles of the resolved
// run, the TranslateWalk result of a stopping element (whose cycles include
// the returned miss latency), and the final Stats must all agree. Segments
// of varying width exercise width 1 and non-multiples of BatchWidth.
func TestTranslateBatchMatchesScalar(t *testing.T) {
	for _, kind := range []string{"Radix", "HPT"} {
		t.Run(kind, func(t *testing.T) {
			scalar, batch, vas := batchPair(t, kind)
			var pas [BatchWidth]addr.PhysAddr
			segments := []int{1, 5, 31, 64, 64, 17, 3, 20}
			pos, seg := 0, 0
			for pos < len(vas) {
				k := segments[seg%len(segments)]
				seg++
				if k > len(vas)-pos {
					k = len(vas) - pos
				}
				chunk := vas[pos : pos+k]
				n, latSum, missLat := batch.TranslateBatchPAs(chunk, pas[:k])
				var wantSum uint64
				for i := 0; i < n; i++ {
					want := scalar.Translate(chunk[i])
					if want.Fault || pas[i] != want.PA {
						t.Fatalf("pos %d+%d (va %#x): batch pa %#x, scalar %+v", pos, i, chunk[i], pas[i], want)
					}
					wantSum += want.Cycles
				}
				if latSum != wantSum {
					t.Fatalf("pos %d: batch cycles %d, scalar %d", pos, latSum, wantSum)
				}
				if n < k {
					got := batch.TranslateWalk(chunk[n], missLat)
					if want := scalar.Translate(chunk[n]); got != want {
						t.Fatalf("pos %d+%d (va %#x): walk %+v, scalar %+v", pos, n, chunk[n], got, want)
					}
					pos += n + 1
					continue
				}
				pos += n
			}
			if bs, ss := batch.Stats(), scalar.Stats(); bs != ss {
				t.Errorf("stats diverge: batch %+v, scalar %+v", bs, ss)
			}
		})
	}
}

// drainPAs drives vas through TranslateBatchPAs in segments of the given
// widths, completing each stopping element with TranslateWalk. It returns
// one physical address per element (a faulting element's walk PA), the
// fault flag of each element, and the total cycles charged.
func drainPAs(m MMU, vas []addr.VirtAddr, segments []int) ([]addr.PhysAddr, []bool, uint64) {
	pas := make([]addr.PhysAddr, len(vas))
	faults := make([]bool, len(vas))
	var total uint64
	pos, seg := 0, 0
	for pos < len(vas) {
		k := segments[seg%len(segments)]
		seg++
		if k > len(vas)-pos {
			k = len(vas) - pos
		}
		n, latSum, missLat := m.TranslateBatchPAs(vas[pos:pos+k], pas[pos:pos+k])
		total += latSum
		if n < k {
			r := m.TranslateWalk(vas[pos+n], missLat)
			pas[pos+n], faults[pos+n] = r.PA, r.Fault
			total += r.Cycles
			pos += n + 1
			continue
		}
		pos += n
	}
	return pas, faults, total
}

// TestTranslateBatchPAsMatchesBatch: the batch width a driver chooses must
// not change what it observes. Ragged segments (width 1, non-multiples of
// BatchWidth) and full-width batches over the same stream must give the same
// per-element addresses and faults, the same total cycles, and the same
// final Stats, for both MMU variants.
func TestTranslateBatchPAsMatchesBatch(t *testing.T) {
	for _, kind := range []string{"Radix", "HPT"} {
		t.Run(kind, func(t *testing.T) {
			ragged, full, vas := batchPair(t, kind)
			rPAs, rFaults, rTotal := drainPAs(ragged, vas, []int{64, 3, 31, 1, 64, 20})
			fPAs, fFaults, fTotal := drainPAs(full, vas, []int{BatchWidth})
			for i := range vas {
				if rPAs[i] != fPAs[i] || rFaults[i] != fFaults[i] {
					t.Fatalf("element %d (va %#x): ragged (pa %#x fault %v), full (pa %#x fault %v)",
						i, vas[i], rPAs[i], rFaults[i], fPAs[i], fFaults[i])
				}
			}
			if rTotal != fTotal {
				t.Errorf("total cycles: ragged %d, full %d", rTotal, fTotal)
			}
			if rs, fs := ragged.Stats(), full.Stats(); rs != fs {
				t.Errorf("stats diverge: ragged %+v, full %+v", rs, fs)
			}
		})
	}
}

// TestTranslateBatchPAsAllocFree guards the simulator's steady-state batch
// entry point on both MMU variants: a warm full-width batch must not touch
// the heap.
func TestTranslateBatchPAsAllocFree(t *testing.T) {
	build := map[string]func() (MMU, vaMapper){
		"Radix": func() (MMU, vaMapper) { m, pt, _ := newRadixMMU(t); return m, pt },
		"HPT":   func() (MMU, vaMapper) { m, pt, _ := newHPTMMU(t); return m, pt },
	}
	for _, kind := range []string{"Radix", "HPT"} {
		t.Run(kind, func(t *testing.T) {
			m, pt := build[kind]()
			var vas [BatchWidth]addr.VirtAddr
			var pas [BatchWidth]addr.PhysAddr
			base := addr.VirtAddr(0x4000_0000)
			for i := range vas {
				vas[i] = base + addr.VirtAddr(i)*4096
				if _, err := pt.Map(vas[i].PageNumber(addr.Page4K), addr.Page4K, addr.PPN(i+1)); err != nil {
					t.Fatal(err)
				}
				m.Translate(vas[i]) // warm the TLBs
			}
			if n := testing.AllocsPerRun(1000, func() {
				got, _, _ := m.TranslateBatchPAs(vas[:], pas[:])
				if got != BatchWidth {
					t.Fatalf("warm batch resolved %d/%d", got, BatchWidth)
				}
			}); n != 0 {
				t.Errorf("TranslateBatchPAs allocates %v objects per call", n)
			}
		})
	}
}
