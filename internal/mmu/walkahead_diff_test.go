package mmu_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/ecpt"
	"repro/internal/mehpt"
	"repro/internal/mmu"
	"repro/internal/radix"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

var orgs = []sim.Org{sim.Radix, sim.ECPT, sim.MEHPT}

// simRun runs cfg and encodes everything it produced: the result's
// counters (MMU, OS, page-table, cycles) and the page table's final state.
func simRun(t *testing.T, cfg sim.Config) string {
	t.Helper()
	m, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	res.MEHPT, res.ECPT = nil, nil // handles; the table state is encoded below
	var state any
	switch p := m.Table().(type) {
	case *radix.PageTable:
		state = p.State()
	case *ecpt.PageTable:
		state = p.State()
	case *mehpt.PageTable:
		state = p.State()
	}
	b, err := json.Marshal([]any{res, state}) // maps encode in key order
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWalkAheadInvisible runs random traces — faulting, with transparent
// huge pages, with and without injected allocation failures — and
// multi-tenant machines whose shared-page remaps invalidate TLB entries,
// once with the walk-ahead forced on at every TLB miss and once with it
// off. Every counter and the final page tables (sim), and the fingerprint
// (tenant), must match: the walk-ahead only reads.
func TestWalkAheadInvisible(t *testing.T) {
	specs := []struct {
		name  string
		scale uint64
		thp   bool
	}{{"GUPS", 64, false}, {"MUMmer", 64, true}, {"SysBench", 512, true}, {"BFS", 512, false}}
	for _, org := range orgs {
		for _, s := range specs {
			for _, inj := range []string{"", "nth=1000"} {
				spec, err := workload.ByName(s.name, s.scale)
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.Config{Org: org, Workload: spec, THP: s.thp, Accesses: 40_000,
					Seed: 9, MemBytes: 512 * addr.MB, Inject: inj}
				restore := mmu.ForceWalkAhead(true)
				on := simRun(t, cfg)
				restore()
				restore = mmu.ForceWalkAhead(false)
				off := simRun(t, cfg)
				restore()
				if on != off {
					t.Errorf("%v %s inject=%q: walk-ahead changed the run", org, s.name, inj)
				}
			}
		}
		for _, inj := range []string{"", "nth=400"} {
			cfg := tenant.Config{
				Org: org, Processes: 6, Cores: 4, MemBytes: 256 * addr.MB,
				Stripes: 4, FMFI: 0.7, Seed: 42, AccessesPerProc: 1200,
				Quantum: 200, Scale: 8192, SharedPages: 96, SharedFraction: 0.08,
				RemapsPerRound: 3, Inject: inj,
			}
			fp := map[bool]string{}
			for _, force := range []bool{true, false} {
				restore := mmu.ForceWalkAhead(force)
				res, err := tenant.Run(cfg)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				fp[force] = res.Fingerprint + fmt.Sprint(res.Shootdowns)
			}
			if fp[true] != fp[false] {
				t.Errorf("%v tenant inject=%q: walk-ahead changed the fingerprint", org, inj)
			}
		}
	}
}
