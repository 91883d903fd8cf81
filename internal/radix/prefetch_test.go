package radix

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/pt"
)

// TestPrefetchReadOnly: the walk-ahead reads the tree and changes nothing
// the simulation can observe — on mapped and unmapped addresses and on 2MB
// and 1GB leaves — and it never allocates.
func TestPrefetchReadOnly(t *testing.T) {
	p, _ := newPT(t)
	probe := []addr.VirtAddr{addr.VPN(5).Addr(addr.Page2M) + 0x1234, addr.VPN(7).Addr(addr.Page1G) + 0x5678}
	if _, err := p.Map(addr.VPN(5), addr.Page2M, 77); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Map(addr.VPN(7), addr.Page1G, 88); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		vpn := addr.VPN(1<<24 + rng.Intn(1<<22)) // above the huge mappings
		if _, err := p.Map(vpn, addr.Page4K, addr.PPN(1000+i)); err != nil {
			t.Fatal(err)
		}
		va := vpn.Addr(addr.Page4K)
		probe = append(probe, va, va+addr.VirtAddr(1+i%7)<<39) // mapped, then under an absent PGD entry
	}
	state := func() []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(p.State()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := state()
	for off := 0; off < len(probe); off += pt.WalkAhead {
		p.Prefetch(probe[off:min(off+pt.WalkAhead, len(probe))])
	}
	p.Prefetch(probe) // longer than the window: the tail is ignored
	if after := state(); !bytes.Equal(before, after) {
		t.Fatal("Prefetch changed the tree or its statistics")
	}
	if n := testing.AllocsPerRun(50, func() { p.Prefetch(probe[:pt.WalkAhead]) }); n != 0 {
		t.Errorf("Prefetch allocates %.1f times per call, want 0", n)
	}
}
