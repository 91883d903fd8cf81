package ecpt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/phys"
	"repro/internal/pt"
	"repro/internal/snapshot"
)

// observable encodes everything a Prefetch must leave untouched: the
// checkpoint state, every per-size and cuckoo-level counter, and the
// position of the table's random stream.
func observable(t *testing.T, p *PageTable, src *snapshot.Source) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(p.State()); err != nil { // maps encode in key order
		t.Fatal(err)
	}
	for _, tb := range p.tables {
		if tb != nil {
			fmt.Fprintf(&buf, "%+v %+v %v\n", tb.Stats(), tb.tb.Stats(), tb.Resizing())
		}
	}
	fmt.Fprintf(&buf, "%+v", src.State())
	return buf.Bytes()
}

// TestPrefetchReadOnly: the walk-ahead reads the table and changes nothing
// the simulation can observe — on mapped and unmapped addresses, on 2MB
// and 1GB mappings, and in the middle of a gradual rehash — and it never
// allocates.
func TestPrefetchReadOnly(t *testing.T) {
	src := snapshot.NewSource(4)
	cfg := DefaultConfig(19)
	cfg.Rand = rand.New(src)
	p, err := NewPageTable(phys.NewAllocator(phys.NewMemory(1*addr.GB), 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	huge := []addr.VirtAddr{addr.VPN(5).Addr(addr.Page2M) + 0x1234, addr.VPN(7).Addr(addr.Page1G) + 0x5678}
	if _, err := p.Map(addr.VPN(5), addr.Page2M, 77); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Map(addr.VPN(7), addr.Page1G, 88); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var vas []addr.VirtAddr
	for i := 0; len(vas) < 400 || !p.Table(addr.Page4K).Resizing(); i++ {
		vpn := addr.VPN(0x100000 + rng.Intn(1<<20))
		if _, err := p.Map(vpn, addr.Page4K, addr.PPN(1000+i)); err != nil {
			t.Fatal(err)
		}
		vas = append(vas, vpn.Addr(addr.Page4K))
	}
	probe := append([]addr.VirtAddr(nil), huge...)
	for i, va := range vas {
		probe = append(probe, va, va+addr.VirtAddr(1+i%7)<<40) // mapped, then far unmapped
	}
	before := observable(t, p, src)
	for off := 0; off < len(probe); off += pt.WalkAhead {
		p.Prefetch(probe[off:min(off+pt.WalkAhead, len(probe))])
	}
	p.Prefetch(probe) // longer than the window: the tail is ignored
	if after := observable(t, p, src); !bytes.Equal(before, after) {
		t.Fatal("Prefetch changed observable table state")
	}
	if n := testing.AllocsPerRun(50, func() { p.Prefetch(probe[:pt.WalkAhead]) }); n != 0 {
		t.Errorf("Prefetch allocates %.1f times per call, want 0", n)
	}
}
