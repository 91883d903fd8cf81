package radix

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/pt"
)

// This file checks the radix tree against an independent model: plain maps
// of mappings and of tree nodes, and the textbook x86-64 walk — the entry
// read at each level sits at node frame × 4KB + index × 8, where the index
// is the 9 VA bits the level decodes. Nothing here shares code with the
// implementation beyond addr's page arithmetic.

// bumpSource is a phys.Source that hands out frames 1, 2, 3, ... and never
// reuses one, so the model can predict every node frame. It fails the test
// on a free of a frame it does not own or of the wrong size.
type bumpSource struct {
	t     *testing.T
	next  addr.PPN
	live  map[addr.PPN]bool
	freed []addr.PPN
}

const bumpCycles = 7

func (b *bumpSource) Alloc(size uint64) (addr.PPN, uint64, error) {
	if size != 4*addr.KB {
		b.t.Fatalf("node allocation of %d bytes", size)
	}
	b.next++
	b.live[b.next] = true
	return b.next, bumpCycles, nil
}

func (b *bumpSource) AllocRollback(size uint64) (addr.PPN, uint64, error) { return b.Alloc(size) }

func (b *bumpSource) Free(ppn addr.PPN, size uint64) {
	if size != 4*addr.KB {
		b.t.Fatalf("frame %d freed with size %d, want 4KB", ppn, size)
	}
	if !b.live[ppn] {
		b.t.Fatalf("free of frame %d, which is not allocated", ppn)
	}
	delete(b.live, ppn)
	b.freed = append(b.freed, ppn)
}

// nodeKey names a tree node by its level and the VA bits above the ones it
// decodes.
type nodeKey struct {
	lvl    int
	prefix uint64
}

type leafKey struct {
	size addr.PageSize
	vpn  addr.VPN
}

// model is the oracle: which nodes exist (with their frames) and which
// leaves map what.
type model struct {
	levels    int
	nodes     map[nodeKey]addr.PPN
	leaves    map[leafKey]addr.PPN
	next      addr.PPN // last frame the bump allocator handed out
	peak      int
	allocs    uint64
	wantFreed []addr.PPN
}

func newModel(levels int) *model {
	m := &model{levels: levels, nodes: map[nodeKey]addr.PPN{}, leaves: map[leafKey]addr.PPN{}}
	m.addNode(m.key(levels-1, 0))
	return m
}

// key returns the node at level lvl on va's path.
func (m *model) key(lvl int, va uint64) nodeKey {
	return nodeKey{lvl, va >> (12 + 9*uint(lvl+1))}
}

func (m *model) addNode(k nodeKey) {
	m.next++
	m.allocs++
	m.nodes[k] = m.next
	if len(m.nodes) > m.peak {
		m.peak = len(m.nodes)
	}
}

func (m *model) dropNode(k nodeKey) {
	if f, ok := m.nodes[k]; ok {
		m.wantFreed = append(m.wantFreed, f)
		delete(m.nodes, k)
	}
}

// sizeAt is the page size a leaf at level lvl maps.
var sizeAt = [3]addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G}

// leafAt returns the leaf mapping va at exactly level lvl.
func (m *model) leafAt(lvl int, va uint64) (addr.PPN, bool) {
	if lvl > 2 {
		return 0, false
	}
	s := sizeAt[lvl]
	ppn, ok := m.leaves[leafKey{s, addr.VirtAddr(va).PageNumber(s)}]
	return ppn, ok
}

// mapPage applies Map and reports whether it should succeed.
func (m *model) mapPage(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) bool {
	va := uint64(vpn.Addr(s))
	leaf := map[addr.PageSize]int{addr.Page4K: 0, addr.Page2M: 1, addr.Page1G: 2}[s]
	for lvl := leaf + 1; lvl <= 2; lvl++ {
		if _, ok := m.leafAt(lvl, va); ok {
			return false // overlaps a larger page
		}
	}
	for lvl := m.levels - 2; lvl >= leaf; lvl-- {
		if _, ok := m.nodes[m.key(lvl, va)]; !ok {
			m.addNode(m.key(lvl, va))
		}
	}
	if leaf > 0 {
		// Promotion: the table below this entry and everything it maps go.
		if _, ok := m.nodes[m.key(leaf-1, va)]; ok {
			m.dropSubtree(leaf-1, va)
		}
	}
	m.leaves[leafKey{s, vpn}] = ppn
	return true
}

// dropSubtree removes the node at level lvl on va's path and everything
// below it.
func (m *model) dropSubtree(lvl int, va uint64) {
	k := m.key(lvl, va)
	if _, ok := m.nodes[k]; !ok {
		return
	}
	span := uint64(1) << (12 + 9*uint(lvl+1))
	base := va &^ (span - 1)
	for i := uint64(0); i < EntriesPerNode; i++ {
		sub := base + i<<(12+9*uint(lvl))
		if lvl > 0 {
			m.dropSubtree(lvl-1, sub)
		}
		if lvl <= 2 {
			delete(m.leaves, leafKey{sizeAt[lvl], addr.VirtAddr(sub).PageNumber(sizeAt[lvl])})
		}
	}
	m.dropNode(k)
}

// translate returns the one leaf covering va, if any.
func (m *model) translate(va uint64) (pt.Translation, bool) {
	for lvl := 2; lvl >= 0; lvl-- {
		if ppn, ok := m.leafAt(lvl, va); ok {
			return pt.Translation{PPN: ppn, Size: sizeAt[lvl]}, true
		}
	}
	return pt.Translation{}, false
}

// walk is the textbook walk: the entry address read at each level, root
// first, stopping at a leaf or a non-present entry.
func (m *model) walk(va uint64) ([]addr.PhysAddr, pt.Translation, bool) {
	var pas []addr.PhysAddr
	for lvl := m.levels - 1; lvl >= 0; lvl-- {
		frame := m.nodes[m.key(lvl, va)]
		idx := (va >> (12 + 9*uint(lvl))) & (EntriesPerNode - 1)
		pas = append(pas, addr.PhysAddr(uint64(frame)*4096+idx*8))
		if ppn, ok := m.leafAt(lvl, va); ok {
			return pas, pt.Translation{PPN: ppn, Size: sizeAt[lvl]}, true
		}
		if lvl == 0 {
			break
		}
		if _, ok := m.nodes[m.key(lvl-1, va)]; !ok {
			break
		}
	}
	return pas, pt.Translation{}, false
}

// TestTreeMatchesOracle drives 4- and 5-level trees with random Map, Unmap
// (4KB, 2MB and 1GB, so huge-page promotion over existing tables happens),
// and lookups, comparing every result with the model.
func TestTreeMatchesOracle(t *testing.T) {
	for _, levels := range []int{4, 5} {
		t.Run(fmt.Sprintf("levels=%d", levels), func(t *testing.T) {
			checkAgainstOracle(t, levels, 120_000, int64(levels))
		})
	}
}

func checkAgainstOracle(t *testing.T, levels, ops int, seed int64) {
	src := &bumpSource{t: t, live: map[addr.PPN]bool{}}
	p, err := NewPageTableLevels(src, levels)
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(levels)
	rng := rand.New(rand.NewSource(seed))

	// A few widely separated 4GB regions, so upper levels branch too; the
	// last ones need a 5-level tree.
	bases := []uint64{0, 3 << 39, 200 << 39}
	if levels == 5 {
		bases = append(bases, 7<<48, 300<<48)
	}
	randVA := func() uint64 {
		return bases[rng.Intn(len(bases))] + rng.Uint64()&(4*addr.GB-1)
	}
	var mapped []uint64 // VAs mapped at some point, to aim lookups at
	lookup := func(va uint64) {
		t.Helper()
		wantTr, wantOK := m.translate(va)
		tr, ok := p.Translate(addr.VirtAddr(va))
		if ok != wantOK || tr != wantTr {
			t.Fatalf("Translate(%#x) = %+v,%v want %+v,%v", va, tr, ok, wantTr, wantOK)
		}
		for _, s := range sizeAt {
			vpn := addr.VirtAddr(va).PageNumber(s)
			ppn, ok := p.TranslateSize(vpn, s)
			want, wantOK := m.leaves[leafKey{s, vpn}]
			if ok != wantOK || ppn != want {
				t.Fatalf("TranslateSize(%#x, %v) = %d,%v want %d,%v", vpn, s, ppn, ok, want, wantOK)
			}
		}
		wantPAs, wantTr, wantOK := m.walk(va)
		pas, tr, ok := p.AppendWalkAddrs(make([]addr.PhysAddr, 0, MaxLevels), addr.VirtAddr(va))
		if !reflect.DeepEqual(pas, wantPAs) || tr != wantTr || ok != wantOK {
			t.Fatalf("AppendWalkAddrs(%#x) = %v,%+v,%v want %v,%+v,%v", va, pas, tr, ok, wantPAs, wantTr, wantOK)
		}
		for lvl := 0; lvl < levels; lvl++ {
			want, wantOK := m.nodes[m.key(lvl, va)]
			f, ok := p.NodeFrameAt(addr.VirtAddr(va), lvl)
			if ok != wantOK || f != want {
				t.Fatalf("NodeFrameAt(%#x, %d) = %d,%v want %d,%v", va, lvl, f, ok, want, wantOK)
			}
		}
	}
	checkWhole := func(step int) {
		t.Helper()
		want := Stats{Nodes: len(m.nodes), PeakNodes: m.peak, AllocCycles: m.allocs * bumpCycles, MaxContiguousAlloc: 4 * addr.KB}
		if got := p.Stats(); got != want {
			t.Fatalf("step %d: Stats = %+v, want %+v", step, got, want)
		}
		if bad := p.CheckTree(); len(bad) > 0 {
			t.Fatalf("step %d: CheckTree: %v", step, bad)
		}
		if len(src.live) != len(m.nodes) {
			t.Fatalf("step %d: %d frames held, model has %d nodes", step, len(src.live), len(m.nodes))
		}
	}

	for step := 0; step < ops; step++ {
		switch r := rng.Intn(1000); {
		case r < 500: // map 4KB
			va := randVA()
			vpn := addr.VirtAddr(va).PageNumber(addr.Page4K)
			ppn := addr.PPN(rng.Uint64() & (1<<40 - 1))
			wantOK := m.mapPage(vpn, addr.Page4K, ppn)
			_, err := p.Map(vpn, addr.Page4K, ppn)
			if (err == nil) != wantOK {
				t.Fatalf("step %d: Map 4KB %#x err=%v, want ok=%v", step, vpn, err, wantOK)
			}
			mapped = append(mapped, va)
		case r < 563: // map 2MB or, rarely, 1GB
			s := addr.Page2M
			if r >= 560 {
				s = addr.Page1G
			}
			va := randVA()
			if len(mapped) > 0 && rng.Intn(2) == 0 {
				va = mapped[rng.Intn(len(mapped))] // promote over existing tables
			}
			vpn := addr.VirtAddr(va).PageNumber(s)
			ppn := addr.PPN(rng.Uint64() & (1<<40 - 1))
			m.wantFreed, src.freed = nil, nil
			wantOK := m.mapPage(vpn, s, ppn)
			_, err := p.Map(vpn, s, ppn)
			if (err == nil) != wantOK {
				t.Fatalf("step %d: Map %v %#x err=%v, want ok=%v", step, s, vpn, err, wantOK)
			}
			slices.Sort(src.freed)
			slices.Sort(m.wantFreed)
			if !slices.Equal(src.freed, m.wantFreed) {
				t.Fatalf("step %d: promotion freed frames %v, want %v", step, src.freed, m.wantFreed)
			}
			mapped = append(mapped, va)
		case r < 800: // unmap, usually a mapped page
			va := randVA()
			if len(mapped) > 0 && rng.Intn(4) > 0 {
				va = mapped[rng.Intn(len(mapped))]
			}
			s := sizeAt[[]int{0, 0, 0, 0, 0, 0, 1, 1, 2}[rng.Intn(9)]]
			vpn := addr.VirtAddr(va).PageNumber(s)
			_, wantOK := m.leaves[leafKey{s, vpn}]
			delete(m.leaves, leafKey{s, vpn})
			if _, ok := p.Unmap(vpn, s); ok != wantOK {
				t.Fatalf("step %d: Unmap(%#x, %v) = %v, want %v", step, vpn, s, ok, wantOK)
			}
		default: // lookups, usually of a mapped page
			va := randVA()
			if len(mapped) > 0 && rng.Intn(4) > 0 {
				va = mapped[rng.Intn(len(mapped))] ^ rng.Uint64()&(1<<22-1)
			}
			lookup(va)
		}
		if step%1000 == 999 {
			checkWhole(step)
		}
		if step%30_000 == 29_999 {
			// Round trip through the snapshot form, and carry on with the
			// restored tree so later steps exercise it.
			st := p.State()
			if len(st.Nodes) != len(m.nodes) {
				t.Fatalf("step %d: State has %d nodes, model %d", step, len(st.Nodes), len(m.nodes))
			}
			q, err := Restore(st, src)
			if err != nil {
				t.Fatalf("step %d: Restore: %v", step, err)
			}
			if got := q.State(); !reflect.DeepEqual(got, st) {
				t.Fatalf("step %d: State→Restore→State differs", step)
			}
			p = q
			checkVisits(t, p, m)
		}
	}
	checkWhole(ops)
	checkVisits(t, p, m)
	for _, va := range mapped {
		lookup(va)
	}
	p.Free()
	if len(src.live) != 0 {
		t.Fatalf("Free left %d frames allocated", len(src.live))
	}
}

// checkVisits compares VisitOwnedFrames and VisitMappings with the model.
func checkVisits(t *testing.T, p *PageTable, m *model) {
	t.Helper()
	frames := map[addr.PPN]bool{}
	p.VisitOwnedFrames(func(base addr.PPN, bytes uint64) {
		if bytes != 4*addr.KB || frames[base] {
			t.Fatalf("VisitOwnedFrames reported frame %d (%d bytes) twice or oversized", base, bytes)
		}
		frames[base] = true
	})
	for _, f := range m.nodes {
		if !frames[f] {
			t.Fatalf("VisitOwnedFrames missed node frame %d", f)
		}
	}
	if len(frames) != len(m.nodes) {
		t.Fatalf("VisitOwnedFrames reported %d frames, model has %d nodes", len(frames), len(m.nodes))
	}
	got := map[leafKey]addr.PPN{}
	p.VisitMappings(func(vpn addr.VPN, s addr.PageSize, ppn addr.PPN) { got[leafKey{s, vpn}] = ppn })
	if !reflect.DeepEqual(got, m.leaves) {
		t.Fatalf("VisitMappings reported %d mappings, model has %d", len(got), len(m.leaves))
	}
}
