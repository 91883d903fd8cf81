// Package integration holds cross-component tests: equivalence of the three
// page-table organizations on identical workloads, end-to-end machine runs
// with real graph kernels, and golden digests that pin simulation output
// across commits.
package integration

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/ecpt"
	"repro/internal/graph"
	"repro/internal/mehpt"
	"repro/internal/phys"
	"repro/internal/radix"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestOrganizationsTranslateIdentically: mapping the same pages must yield
// identical translations from radix, ECPT, and ME-HPT.
func TestOrganizationsTranslateIdentically(t *testing.T) {
	mkAlloc := func() *phys.Allocator {
		return phys.NewAllocator(phys.NewMemory(2*addr.GB), 0)
	}
	rpt, err := radix.NewPageTable(mkAlloc())
	if err != nil {
		t.Fatal(err)
	}
	ecfg := ecpt.DefaultConfig(5)
	ecfg.Rand = rand.New(rand.NewSource(1))
	ept, err := ecpt.NewPageTable(mkAlloc(), ecfg)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mehpt.DefaultConfig(5)
	mcfg.Rand = rand.New(rand.NewSource(1))
	mpt, err := mehpt.NewPageTable(mkAlloc(), mcfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(77))
	type mapping struct {
		vpn  addr.VPN
		size addr.PageSize
		ppn  addr.PPN
	}
	var maps []mapping
	used2M := map[addr.VPN]bool{}
	for i := 0; i < 30000; i++ {
		var m mapping
		if rng.Intn(10) == 0 {
			m = mapping{addr.VPN(rng.Uint64() & 0x7FFF), addr.Page2M, addr.PPN(rng.Uint64() & 0xFFFF)}
			used2M[m.vpn] = true
		} else {
			vpn := addr.VPN(rng.Uint64() & 0xFFFFFF)
			// Keep 4KB pages out of regions mapped 2MB (the radix tree
			// rejects overlap; the HPTs keep separate tables).
			if used2M[addr.VirtAddr(vpn.Addr(addr.Page4K)).PageNumber(addr.Page2M)] {
				continue
			}
			m = mapping{vpn, addr.Page4K, addr.PPN(rng.Uint64() & 0x3FFFFFF)}
		}
		if _, err := rpt.Map(m.vpn, m.size, m.ppn); err != nil {
			continue // overlap rejected; skip everywhere
		}
		if _, err := ept.Map(m.vpn, m.size, m.ppn); err != nil {
			t.Fatalf("ecpt.Map: %v", err)
		}
		if _, err := mpt.Map(m.vpn, m.size, m.ppn); err != nil {
			t.Fatalf("mehpt.Map: %v", err)
		}
		maps = append(maps, m)
	}
	for _, m := range maps {
		va := m.vpn.Addr(m.size) + addr.VirtAddr(rng.Intn(int(m.size.Bytes())))
		r, rok := rpt.Translate(va)
		e, eok := ept.Translate(va)
		h, hok := mpt.Translate(va)
		if !rok || !eok || !hok {
			t.Fatalf("translate(%#x): radix %v ecpt %v mehpt %v", uint64(va), rok, eok, hok)
		}
		if r != e || e != h {
			t.Fatalf("translate(%#x) diverges: radix %+v ecpt %+v mehpt %+v", uint64(va), r, e, h)
		}
	}
}

// TestGraphKernelOnAllOrgs: a real BFS produces identical checksums and
// access counts under every page-table organization (translation is
// transparent to the program).
func TestGraphKernelOnAllOrgs(t *testing.T) {
	g := graph.GenerateUniform(20000, 8, 4, workload.BaseVA)
	var counts [3]uint64
	var sums [3]float64
	for _, org := range []sim.Org{sim.Radix, sim.ECPT, sim.MEHPT} {
		m, err := sim.NewMachine(sim.Config{
			Org: org, Workload: workload.Spec{Name: "g"},
			Seed: 1, MemBytes: 4 * addr.GB,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		res := m.RunAddresses(func(emit func(addr.VirtAddr)) {
			sum, _ = g.Run("BFS", emit)
		})
		if res.Failed {
			t.Fatalf("%v failed: %s", org, res.FailReason)
		}
		counts[org] = res.Accesses
		sums[org] = sum
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("access counts diverge: %v", counts)
	}
	if sums[0] != sums[1] || sums[1] != sums[2] {
		t.Errorf("kernel results diverge: %v", sums)
	}
}

// TestFragmentationEndToEnd reproduces the paper's failure narrative on a
// genuinely shredded machine: ECPT cannot finish the GUPS-like growth while
// ME-HPT completes, and the radix tree (4KB-only allocations) also survives.
func TestFragmentationEndToEnd(t *testing.T) {
	spec, err := workload.ByName("GUPS", 32) // 2MB ECPT ways at this scale
	if err != nil {
		t.Fatal(err)
	}
	results := map[sim.Org]sim.Result{}
	for _, org := range []sim.Org{sim.Radix, sim.ECPT, sim.MEHPT} {
		mem := phys.NewMemory(4 * addr.GB)
		fr := phys.NewFragmenter(mem)
		// Nothing above 1MB coalesces.
		if err := fr.Fragment(0.95, 0.5, phys.OrderFor(1*addr.MB), rand.New(rand.NewSource(6))); err != nil {
			t.Fatal(err)
		}
		mem.ResetStats()
		// Drive the page tables directly (data frames aren't the point).
		pt, err := buildPT(org, mem)
		if err != nil {
			results[org] = sim.Result{Failed: true, FailReason: err.Error()}
			continue
		}
		var failure error
		i := 0
		spec.TouchedPageVAs(func(va addr.VirtAddr) bool {
			_, failure = pt.Map(va.PageNumber(addr.Page4K), addr.Page4K, addr.PPN(i))
			i++
			return failure == nil
		})
		r := sim.Result{}
		if failure != nil {
			r.Failed = true
			r.FailReason = failure.Error()
		}
		results[org] = r
	}
	if results[sim.Radix].Failed {
		t.Errorf("radix failed under fragmentation: %s", results[sim.Radix].FailReason)
	}
	if results[sim.MEHPT].Failed {
		t.Errorf("ME-HPT failed under fragmentation: %s", results[sim.MEHPT].FailReason)
	}
	if !results[sim.ECPT].Failed {
		t.Error("ECPT finished despite needing multi-MB contiguous ways")
	}
}

type mapper interface {
	Map(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) (uint64, error)
}

func buildPT(org sim.Org, mem *phys.Memory) (mapper, error) {
	alloc := phys.NewAllocator(mem, 0.9)
	switch org {
	case sim.Radix:
		return radix.NewPageTable(alloc)
	case sim.ECPT:
		cfg := ecpt.DefaultConfig(7)
		cfg.Rand = rand.New(rand.NewSource(3))
		return ecpt.NewPageTable(alloc, cfg)
	default:
		cfg := mehpt.DefaultConfig(7)
		cfg.Rand = rand.New(rand.NewSource(3))
		return mehpt.NewPageTable(alloc, cfg)
	}
}
