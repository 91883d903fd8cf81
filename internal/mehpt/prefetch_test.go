package mehpt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/cuckoo"
	"repro/internal/phys"
	"repro/internal/pt"
	"repro/internal/snapshot"
)

// TestPrefetchReadOnly: the walk-ahead reads the table and changes nothing
// the simulation can observe — on mapped and unmapped addresses, on 2MB
// and 1GB mappings, with stash entries, and in the middle of an in-place
// or out-of-place resize — and it never allocates.
func TestPrefetchReadOnly(t *testing.T) {
	for _, inPlace := range []bool{true, false} {
		t.Run(fmt.Sprintf("inPlace=%v", inPlace), func(t *testing.T) {
			src := snapshot.NewSource(5)
			cfg := DefaultConfig(77)
			cfg.Rand = rand.New(src)
			cfg.InPlace = inPlace
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
				vpn := addr.VPN(1<<24 + rng.Intn(1<<22))
				if _, err := p.Map(vpn, addr.Page4K, addr.PPN(1000+i)); err != nil {
					t.Fatal(err)
				}
				vas = append(vas, vpn.Addr(addr.Page4K))
			}
			// Move one live entry from its way slot to the stash, as a
			// degraded transition would have.
			tb := p.Table(addr.Page4K)
			wi, idx, _, ok := tb.lookupSlot(pt.ClusterKey(vas[0].PageNumber(addr.Page4K)))
			if !ok {
				t.Fatal("first mapping not in a way")
			}
			w := tb.ways[wi]
			tb.stashPut(w.slots[idx])
			w.slots[idx] = cuckoo.Entry{Key: cuckoo.EmptyKey}
			w.occ--
			if tr, ok := p.Translate(vas[0]); !ok || tr.Size != addr.Page4K {
				t.Fatal("stashed mapping no longer translates")
			}

			probe := append([]addr.VirtAddr(nil), huge...)
			for i, va := range vas {
				probe = append(probe, va, va+addr.VirtAddr(1+i%7)<<40) // mapped, then far unmapped
			}
			observable := func() []byte {
				var buf bytes.Buffer
				if err := json.NewEncoder(&buf).Encode(p.State()); err != nil { // maps encode in key order
					t.Fatal(err)
				}
				for _, tb := range p.tables {
					if tb != nil {
						fmt.Fprintf(&buf, "%+v %v\n", tb.Stats(), tb.Resizing())
					}
				}
				fmt.Fprintf(&buf, "%+v", src.State())
				return buf.Bytes()
			}
			before := observable()
			for off := 0; off < len(probe); off += pt.WalkAhead {
				p.Prefetch(probe[off:min(off+pt.WalkAhead, len(probe))])
			}
			p.Prefetch(probe) // longer than the window: the tail is ignored
			if after := observable(); !bytes.Equal(before, after) {
				t.Fatal("Prefetch changed observable table state")
			}
			if n := testing.AllocsPerRun(50, func() { p.Prefetch(probe[:pt.WalkAhead]) }); n != 0 {
				t.Errorf("Prefetch allocates %.1f times per call, want 0", n)
			}
		})
	}
}
