package sim

import (
	"errors"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/mmu"
	"repro/internal/osmodel"
)

// ErrFaultPersisted reports an access that still faults after the OS
// serviced its page fault: the OS claims to have mapped the page, but the
// MMU cannot find the mapping.
var ErrFaultPersisted = errors.New("fault persisted after OS handling")

// Cycles is the cycle accounting Pipeline.Step adds to.
type Cycles struct {
	Xlat uint64 // translation: TLB probes and page walks
	Data uint64 // data accesses through the cache hierarchy, MLP-discounted
	OS   uint64 // page-fault handling, including allocation stalls
}

// Pipeline is one core's access path: the MMU, the data caches behind it,
// and the OS that services its page faults. Step is the simulator's only
// access loop; Machine drives it for every trace source, and the
// multi-tenant machine drives one pipeline per simulated core, rebinding
// Cache and OS to the process it schedules.
type Pipeline struct {
	MMU   mmu.MMU
	Cache *cache.Hierarchy
	OS    *osmodel.OS
	// Step scratch, allocated once with the pipeline: the buffers cross the
	// MMU interface, so as locals they would escape to the heap per call.
	//mehpt:transient -- per-batch scratch, dead between Step calls
	pas [mmu.BatchWidth]addr.PhysAddr
	//mehpt:transient -- per-batch scratch, dead between Step calls
	lats [mmu.BatchWidth]uint64
}

// Step performs the memory references vas in order — translation, fault
// handling, and data access for each — and adds their cycles to c. It
// returns the number of references completed. A non-nil error means vas[n]
// failed: the OS could not service its fault (the OS error, unwrapped), or
// the fault persisted (ErrFaultPersisted). The failing reference's
// translation and fault cycles are already in c; whether it counts as an
// access is the caller's choice.
//
// The TLB-hit run at the head of vas goes through TranslateBatchPAs and
// AccessBatch in one pipelined pass each; the first reference that misses
// every TLB is finished through TranslateWalk, the OS fault handler, a
// retried Translate, and a scalar cache Access, and the batch resumes after
// it. The reorder is invisible: TLB hits touch only TLB state and data
// accesses only cache state, so hits-then-accesses commutes with the
// per-reference interleave, and a batch stops at the first page walk (which
// touches the data caches) so walks stay in reference order. The
// differential tests in batch_test.go pin Step to the per-reference loop.
//
//mehpt:hotpath
func (p *Pipeline) Step(vas []addr.VirtAddr, c *Cycles) (int, error) {
	var xlat, data uint64
	done := 0
	for done < len(vas) {
		batch := vas[done:]
		if len(batch) > mmu.BatchWidth {
			batch = batch[:mmu.BatchWidth]
		}
		n, latSum, missLat := p.MMU.TranslateBatchPAs(batch, p.pas[:])
		xlat += latSum
		if n > 0 {
			p.Cache.AccessBatch(p.pas[:n], p.lats[:n])
			for _, lat := range p.lats[:n] {
				data += lat / DataMLP
			}
			done += n
		}
		if n == len(batch) {
			continue
		}
		// batch[n] missed every TLB; its probes already ran inside the
		// batch, so only the walk (and any fault) remains.
		va := batch[n]
		r := p.MMU.TranslateWalk(va, missLat)
		xlat += r.Cycles
		if r.Fault {
			osCycles, err := p.OS.HandleFault(va) //mehpt:allow hotalloc -- fault path: a miss leaves the translation fast path by design
			c.OS += osCycles
			if err == nil {
				r = p.MMU.Translate(va)
				xlat += r.Cycles
				if r.Fault {
					err = ErrFaultPersisted
				}
			}
			if err != nil {
				c.Xlat += xlat
				c.Data += data
				return done, err
			}
		}
		data += p.Cache.Access(r.PA) / DataMLP
		done++
	}
	c.Xlat += xlat
	c.Data += data
	return done, nil
}
