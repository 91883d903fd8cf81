package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/ecpt"
	"repro/internal/mehpt"
	"repro/internal/mmu"
	"repro/internal/osmodel"
	"repro/internal/phys"
	"repro/internal/radix"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Machine pricing, as the experiment drivers use it: a pristine 64GB buddy
// allocator (no physical shredding) that charges allocations at 0.7 FMFI.
const (
	memBytes     = 64 * addr.GB
	freeFraction = 0.35
	ambientFMFI  = 0.7
	// moveCycles prices one page-table entry migration in Figure 9's cycle
	// composition (experiments.perfCycles).
	moveCycles = 150
)

// simSlice is a Figure 9 slice: one application, populated at the plan's
// scale, then driven by a timed trace through each organization. Every
// cell starts from a fresh machine, so TLBs and caches start empty.
type simSlice struct {
	name string
	app  string
	// replay records one MEHPTBT1 trace during set-up and replays it through
	// sim.Machine.RunStream; otherwise the generator feeds RunBatches.
	replay bool
	// paper is Figure 9's ME-HPT-over-radix speedup for this application.
	paper float64
}

var (
	graphBFS = simSlice{name: "graph-bfs", app: "BFS", paper: 1.2}
	gupsWalk = simSlice{name: "gups-walk", app: "GUPS", replay: true, paper: 3.3}
)

// machineSeed derives a cell's machine seed the way the experiment drivers
// do, from the benchmark seed and the cell's identity.
func (w simSlice) machineSeed(seed int64, o orgDef) int64 {
	return runner.DeriveSeed(seed, w.app, o.sim.String(), false, "")
}

// traceSeed seeds the timed trace; all organizations replay the same one.
func traceSeed(seed int64) int64 { return runner.DeriveSubSeed(seed, "trace", 0) }

// populated builds the cell's machine and faults in the footprint. Run
// with no timed accesses is the population phase alone.
func (w simSlice) populated(spec workload.Spec, o orgDef, seed int64) (*sim.Machine, sim.Result, error) {
	m, err := sim.NewMachine(sim.Config{Org: o.sim, Workload: spec, Populate: true,
		Seed: w.machineSeed(seed, o), MemBytes: memBytes, FreeFraction: freeFraction})
	if err != nil {
		return nil, sim.Result{}, err
	}
	m.SetAmbientFMFI(ambientFMFI)
	pop := m.Run()
	if pop.Failed {
		return nil, pop, fmt.Errorf("populate: %s", pop.FailReason)
	}
	return m, pop, nil
}

// timed runs the cell's timed phase.
func (w simSlice) timed(m *sim.Machine, spec workload.Spec, seed int64, p plan, rec []byte) (sim.Result, error) {
	if w.replay {
		s, err := trace.OpenStream(bytes.NewReader(rec))
		if err != nil {
			return sim.Result{}, err
		}
		return m.RunStream(s)
	}
	return m.RunBatches(spec.NewTrace(traceSeed(seed), p.accesses).NextBatch), nil
}

// checkRun rejects a timed phase that failed or simulated a different
// number of accesses than requested.
func checkRun(res sim.Result, err error, want uint64) error {
	switch {
	case err != nil:
		return err
	case res.Failed:
		return fmt.Errorf("run failed: %s", res.FailReason)
	case res.Accesses != want:
		return fmt.Errorf("simulated %d accesses, requested %d", res.Accesses, want)
	}
	return nil
}

// record generates the timed trace and encodes it as MEHPTBT1 in memory.
// A non-nil tracer times the generator calls.
func record(spec workload.Spec, seed int64, n uint64, t *tracer) ([]byte, error) {
	tr := spec.NewTrace(seed, n)
	vas := make([]addr.VirtAddr, n)
	for off := 0; off < len(vas); {
		end := min(off+mmu.BatchWidth, len(vas))
		var got int
		if t != nil {
			t.batch++
			s := t.now()
			got = tr.NextBatch(vas[off:end])
			t.end(layerWorkload, s)
		} else {
			got = tr.NextBatch(vas[off:end])
		}
		if got == 0 {
			return nil, fmt.Errorf("trace ended after %d of %d accesses", off, n)
		}
		off += got
	}
	var buf bytes.Buffer
	buf.Grow(32 + 8*len(vas))
	if err := trace.WriteBinaryVAs(&buf, vas); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// totals is the simulated state a cell is compared by: across repeats of
// the same seed, and between the traced and untraced pipelines.
type totals struct {
	Accesses, Cycles, XlatCycles, DataCycles, OSCycles uint64
	MMU                                                mmu.Stats
	OS                                                 osmodel.Stats
	PTPeakBytes, PTFinalBytes, MaxContiguous           uint64
	PTAllocCycles, PTMoves                             uint64
}

func totalsOf(r sim.Result) totals {
	return totals{Accesses: r.Accesses, Cycles: r.Cycles, XlatCycles: r.XlatCycles,
		DataCycles: r.DataCycles, OSCycles: r.OSCycles, MMU: r.MMU, OS: r.OS,
		PTPeakBytes: r.PTPeakBytes, PTFinalBytes: r.PTFinalBytes, MaxContiguous: r.MaxContiguous,
		PTAllocCycles: r.PTAllocCycles, PTMoves: r.PTMoves}
}

// cell is one organization's untraced run.
type cell struct {
	setup, timed elapsed
	pop, res     totals
	host         hostCounters // runtime allocations and collections while timed
}

// cell builds, populates and runs one organization. The collector runs
// first, outside the measured phases, so one cell's garbage is not charged
// to the next.
func (w simSlice) cell(spec workload.Spec, o orgDef, seed int64, p plan, rec []byte) (cell, error) {
	runtime.GC()
	t0 := now()
	m, pop, err := w.populated(spec, o, seed)
	if err != nil {
		return cell{}, err
	}
	setup := since(t0)
	h0 := readHost()
	t1 := now()
	res, err := w.timed(m, spec, seed, p, rec)
	c := cell{setup: setup, timed: since(t1), pop: totalsOf(pop), res: totalsOf(res),
		host: readHost().sub(h0)}
	return c, checkRun(res, err, p.accesses)
}

// figure9Cycles is Figure 9's cycle composition (experiments.perfCycles).
func figure9Cycles(t totals) float64 {
	return float64(t.XlatCycles + t.DataCycles + t.PTAllocCycles + t.PTMoves*moveCycles)
}

// printModel prints the informational model-accuracy line: the ME-HPT over
// radix speedup from Figure 9's cycle composition beside the paper's value.
func (w simSlice) printModel(res [len(orgs)]totals) {
	mehptCycles := figure9Cycles(res[2])
	if mehptCycles == 0 || figure9Cycles(res[0]) == 0 {
		return // a failed cell; the failure is already reported
	}
	got := figure9Cycles(res[0]) / mehptCycles
	fmt.Printf("model: %s ME-HPT over radix %.2fx (Figure 9 cycle composition, %d timed accesses per cell); "+
		"paper %.1fx; error %+.0f%% (informational, not gated; the model is otherwise unvalidated)\n",
		w.name, got, res[2].Accesses, w.paper, (got/w.paper-1)*100)
}

func (w simSlice) run(o options, p plan, ck *checker) (map[string]metric, error) {
	spec, err := workload.ByName(w.app, p.scale)
	if err != nil {
		return nil, err
	}
	if o.traced {
		return w.traced(o, spec, p, ck)
	}
	var e endToEnd
	var firstPop, first [len(orgs)]totals
	for r := 0; r < p.repeats; r++ {
		var setup, timed elapsed
		var rec []byte
		if w.replay {
			runtime.GC()
			t0 := now()
			rec, err = record(spec, traceSeed(o.seed), p.accesses, nil)
			if err != nil {
				return nil, err
			}
			setup = since(t0)
		}
		for k := range orgs {
			// Rotate the order across repeats, so that no organization
			// always runs first or last in a pass.
			i := (k + r) % len(orgs)
			og := orgs[i]
			c, err := w.cell(spec, og, o.seed, p, rec)
			if err == nil && r > 0 && (c.pop != firstPop[i] || c.res != first[i]) {
				err = errors.New("simulated statistics differ from the first repeat of the same seed")
			}
			ck.op(fmt.Sprintf("%s/%s/repeat%d", w.name, og.name, r), err)
			if err != nil {
				continue
			}
			if r == 0 {
				firstPop[i], first[i] = c.pop, c.res
			}
			setup = setup.add(c.setup)
			timed = timed.add(c.timed)
			e.addCell(i, c.res.Accesses, c.timed)
		}
		e.addRepeat(setup, timed)
	}
	w.printModel(first)
	return e.metrics(), nil
}

// pageTable is what the traced machine needs from an organization.
type pageTable interface {
	osmodel.PageTable
	FootprintBytes() uint64
	PeakFootprintBytes() uint64
	MaxContiguousAlloc() uint64
	AllocCycles() uint64
	Moves() uint64
}

// batchMMU is the batched translation entry point both MMUs provide.
type batchMMU interface {
	TranslateBatchPAs(vas []addr.VirtAddr, pas []addr.PhysAddr) (int, uint64, uint64)
	TranslateWalk(va addr.VirtAddr, missLat uint64) mmu.Result
	Translate(va addr.VirtAddr) mmu.Result
	Stats() mmu.Stats
}

// tracedMachine is sim.Machine rebuilt from the layers' public
// constructors, so the benchmark can time each layer call. Its wiring must
// match sim.NewMachine exactly; the traced run compares its simulated
// totals with the untraced machine's and fails on any difference.
type tracedMachine struct {
	table  pageTable
	mmu    batchMMU
	cache  *cache.Hierarchy
	os     *osmodel.OS
	mehpt  *mehpt.PageTable // nil for the other organizations
	vaBuf  [mmu.BatchWidth]addr.VirtAddr
	paBuf  [mmu.BatchWidth]addr.PhysAddr
	latBuf [mmu.BatchWidth]uint64
}

func newTracedMachine(spec workload.Spec, o orgDef, seed int64) (*tracedMachine, error) {
	alloc := phys.NewAllocator(phys.NewMemory(memBytes), 0)
	tm := &tracedMachine{cache: cache.NewHierarchy(cache.TableIII())}
	hashSeed := uint64(seed)*2654435761 + 12345
	switch o.sim {
	case sim.Radix:
		p, err := radix.NewPageTable(alloc)
		if err != nil {
			return nil, err
		}
		tm.table, tm.mmu = p, mmu.NewRadix(p, tm.cache)
	case sim.ECPT:
		c := ecpt.DefaultConfig(hashSeed)
		c.Rand = rand.New(rand.NewSource(seed + 2))
		p, err := ecpt.NewPageTable(alloc, c)
		if err != nil {
			return nil, err
		}
		tm.table, tm.mmu = p, mmu.NewHPT(p, tm.cache)
	case sim.MEHPT:
		c := mehpt.DefaultConfig(hashSeed)
		c.Rand = rand.New(rand.NewSource(seed + 2))
		p, err := mehpt.NewPageTable(alloc, c)
		if err != nil {
			return nil, err
		}
		tm.table, tm.mmu, tm.mehpt = p, mmu.NewHPT(p, tm.cache), p
	}
	// Like sim.Machine.SetAmbientFMFI after sim.NewMachine: the table's
	// initial allocation is priced unfragmented, everything after at 0.7.
	alloc.AmbientFMFI = ambientFMFI
	osCfg := osmodel.DefaultConfig()
	osCfg.THPFraction = spec.THPFraction
	tm.os = osmodel.New(osCfg, tm.table, alloc)
	return tm, nil
}

// totals assembles the machine's simulated totals for one phase.
func (tm *tracedMachine) totals(accesses, xlat, data, osCycles uint64) totals {
	return totals{Accesses: accesses, Cycles: xlat + data + osCycles, XlatCycles: xlat,
		DataCycles: data, OSCycles: osCycles, MMU: tm.mmu.Stats(), OS: tm.os.Stats(),
		PTPeakBytes: tm.table.PeakFootprintBytes(), PTFinalBytes: tm.table.FootprintBytes(),
		MaxContiguous: tm.table.MaxContiguousAlloc(), PTAllocCycles: tm.table.AllocCycles(),
		PTMoves: tm.table.Moves()}
}

// populate faults in the footprint, timing each fault.
func (tm *tracedMachine) populate(spec workload.Spec, t *tracer) (totals, error) {
	var osCycles uint64
	var ferr error
	spec.TouchedPageVAs(func(va addr.VirtAddr) bool {
		if _, ok := tm.table.Translate(va); ok {
			return true
		}
		t.batch++
		s := t.now()
		cycles, err := tm.os.HandleFault(va)
		t.end(layerFault, s)
		osCycles += cycles
		ferr = err
		return err == nil
	})
	return tm.totals(0, 0, 0, osCycles), ferr
}

// source is the timed phase's address producer: the generator or a decoded
// trace. A short fill ends the run.
type source interface {
	next(out []addr.VirtAddr) (int, error)
}

type genSource struct{ tr *workload.Trace }

func (g genSource) next(out []addr.VirtAddr) (int, error) { return g.tr.NextBatch(out), nil }

type streamSource struct{ s trace.Stream }

func (s streamSource) next(out []addr.VirtAddr) (int, error) {
	n, err := s.s.NextBatch(out)
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// batchCounts is the batched TLB path's useful-per-attempt accounting.
type batchCounts struct {
	calls, resolved uint64
}

// run replays sim.Machine's batched access loop with a span around every
// layer call. srcLayer names the layer src belongs to.
func (tm *tracedMachine) run(src source, srcLayer layer, t *tracer) (totals, batchCounts, error) {
	var accesses, xlat, data, osCycles uint64
	var bc batchCounts
	for {
		t.batch++
		s := t.now()
		n, err := src.next(tm.vaBuf[:])
		t.end(srcLayer, s)
		if err != nil {
			return tm.totals(accesses, xlat, data, osCycles), bc, err
		}
		if n == 0 {
			break
		}
		batch := tm.vaBuf[:n]
		for len(batch) > 0 {
			s = t.now()
			done, latSum, missLat := tm.mmu.TranslateBatchPAs(batch, tm.paBuf[:])
			t.end(layerTLB, s)
			bc.calls++
			bc.resolved += uint64(done)
			xlat += latSum
			if done > 0 {
				accesses += uint64(done)
				s = t.now()
				tm.cache.AccessBatch(tm.paBuf[:done], tm.latBuf[:done])
				t.end(layerCache, s)
				for _, lat := range tm.latBuf[:done] {
					data += lat / sim.DataMLP
				}
			}
			if done == len(batch) {
				break
			}
			va := batch[done]
			accesses++
			s = t.now()
			r := tm.mmu.TranslateWalk(va, missLat)
			t.end(layerWalk, s)
			xlat += r.Cycles
			if r.Fault {
				s = t.now()
				cycles, err := tm.os.HandleFault(va)
				t.end(layerFault, s)
				osCycles += cycles
				if err != nil {
					return tm.totals(accesses, xlat, data, osCycles), bc, err
				}
				s = t.now()
				r = tm.mmu.Translate(va)
				t.end(layerWalk, s)
				xlat += r.Cycles
				if r.Fault {
					return tm.totals(accesses, xlat, data, osCycles), bc, errors.New("fault persisted after OS handling")
				}
			}
			s = t.now()
			data += tm.cache.Access(r.PA) / sim.DataMLP
			t.end(layerCache, s)
			batch = batch[done+1:]
		}
	}
	return tm.totals(accesses, xlat, data, osCycles), bc, nil
}

// batchSampling keeps the spans of every 64th access batch.
const batchSampling = 64

// tracedCell is one organization's traced run and its untraced reference.
type tracedCell struct {
	ref       cell    // the untraced sim.Machine run of the same cell
	res       totals  // the traced timed phase
	setup     *tracer // population spans
	timed     *tracer // timed-phase spans
	wall      int64   // traced timed-phase wall, ns
	batch     batchCounts
	dramRefs  uint64
	mehptStat mehptCounts
}

// mehptCounts sums ME-HPT table counters over page sizes.
type mehptCounts struct {
	inserts, kicks, upsizes, stalls, failedUpsizes, l2pEntries uint64
}

func mehptCountsOf(p *mehpt.PageTable) mehptCounts {
	var c mehptCounts
	if p == nil {
		return c
	}
	for _, s := range addr.Sizes() {
		t := p.Table(s)
		if t == nil {
			continue
		}
		st := t.Stats()
		c.inserts += st.Inserts
		c.kicks += st.Kicks
		c.stalls += st.Stalls
		c.failedUpsizes += st.FailedUpsizes
		for _, u := range st.UpsizesPerWay {
			c.upsizes += u
		}
	}
	c.l2pEntries = uint64(p.L2P().TotalUsed())
	return c
}

// tracedCell runs the untraced reference cell, then the traced one, and
// checks that both simulated the same thing.
func (w simSlice) tracedCell(spec workload.Spec, o orgDef, seed int64, p plan, rec []byte, log *spanLog) (tracedCell, error) {
	ref, err := w.cell(spec, o, seed, p, rec)
	if err != nil {
		return tracedCell{}, fmt.Errorf("untraced: %w", err)
	}
	runtime.GC()
	tm, err := newTracedMachine(spec, o, w.machineSeed(seed, o))
	if err != nil {
		return tracedCell{}, err
	}
	tc := tracedCell{ref: ref, setup: newTracer(log, o.name, "setup", batchSampling), timed: newTracer(log, o.name, "timed", batchSampling)}
	pop, err := tm.populate(spec, tc.setup)
	if err != nil {
		return tracedCell{}, fmt.Errorf("traced populate: %w", err)
	}
	var src source
	srcLayer := layerWorkload
	if w.replay {
		s, err := trace.OpenStream(bytes.NewReader(rec))
		if err != nil {
			return tracedCell{}, err
		}
		src, srcLayer = streamSource{s}, layerTrace
	} else {
		src = genSource{spec.NewTrace(traceSeed(seed), p.accesses)}
	}
	dram0 := tm.cache.DRAMAccesses()
	start := tc.timed.now()
	tc.res, tc.batch, err = tm.run(src, srcLayer, tc.timed)
	tc.wall = tc.timed.now() - start
	tc.dramRefs = tm.cache.DRAMAccesses() - dram0
	tc.mehptStat = mehptCountsOf(tm.mehpt)
	switch {
	case err != nil:
		return tc, fmt.Errorf("traced run: %w", err)
	case pop != ref.pop:
		return tc, fmt.Errorf("traced population differs from sim.Machine:\n traced   %+v\n untraced %+v", pop, ref.pop)
	case tc.res != ref.res:
		return tc, fmt.Errorf("traced totals differ from sim.Machine:\n traced   %+v\n untraced %+v", tc.res, ref.res)
	}
	return tc, nil
}

// traced is the per-layer run: every organization runs untraced, then
// traced, and the per-layer metrics come from the traced pipeline.
func (w simSlice) traced(o options, spec workload.Spec, p plan, ck *checker) (map[string]metric, error) {
	log := &spanLog{}
	var rec []byte
	gen := newTracer(log, "all", "setup", batchSampling)
	if w.replay {
		var err error
		if rec, err = record(spec, traceSeed(o.seed), p.accesses, gen); err != nil {
			return nil, err
		}
	}
	m := newLayerMetrics()
	var (
		accesses, walks, faults   uint64
		wall, untracedNS, faultNS int64
		timedNS                   [numLayers]int64
		allocs, gcs               uint64
		mc                        mehptCounts
		model                     [len(orgs)]totals
	)
	for i, og := range orgs {
		tc, err := w.tracedCell(spec, og, o.seed, p, rec, log)
		ck.op(fmt.Sprintf("%s/%s/traced", w.name, og.name), err)
		if err != nil {
			continue
		}
		model[i] = tc.ref.res
		r := tc.res
		accesses += r.Accesses
		walks += r.MMU.Walks
		faults += r.OS.Faults
		faultNS += tc.setup.ns[layerFault] + tc.timed.ns[layerFault]
		wall += tc.wall
		untracedNS += int64(tc.ref.timed.wall)
		for l := range timedNS {
			timedNS[l] += tc.timed.ns[l]
		}
		allocs += tc.ref.host.allocs
		gcs += tc.ref.host.gcs
		if tc.mehptStat != (mehptCounts{}) {
			mc = tc.mehptStat
		}
		a := float64(r.Accesses)
		sfx := "." + og.name
		m.set("walk.ns_per_walk"+sfx, div(float64(tc.timed.ns[layerWalk]), float64(r.MMU.Walks)))
		m.set("tlb.l1_hit_frac"+sfx, div(float64(r.MMU.L1Hits), float64(r.MMU.Translations)))
		m.set("tlb.l2_hit_frac"+sfx, div(float64(r.MMU.L2Hits), float64(r.MMU.Translations)))
		m.set("tlb.batch_fill"+sfx, div(float64(tc.batch.resolved), float64(tc.batch.calls*mmu.BatchWidth)))
		m.set("walk.per_access"+sfx, div(float64(r.MMU.Walks), a))
		m.set("walk.cycles_per_walk"+sfx, div(float64(r.MMU.WalkCycles), float64(r.MMU.Walks)))
		m.set("cache.dram_refs_per_access"+sfx, div(float64(tc.dramRefs), a))
		m.set("os.faults"+sfx, float64(r.OS.Faults))
		m.set("pt.moves"+sfx, float64(r.PTMoves))
		m.set("pt.alloc_cycles"+sfx, float64(r.PTAllocCycles))
		m.set("pt.peak_bytes"+sfx, float64(r.PTPeakBytes))
		m.set("sim.cycles_per_access"+sfx, div(float64(r.Cycles), a))
	}
	a := float64(accesses)
	if w.replay {
		// The generator runs only while the trace is recorded in set-up.
		m.set("workload.ns_per_access", div(float64(gen.ns[layerWorkload]), float64(p.accesses)))
	} else {
		m.set("workload.ns_per_access", div(float64(timedNS[layerWorkload]), a))
	}
	m.set("trace.ns_per_access", div(float64(timedNS[layerTrace]), a))
	m.set("tlb.ns_per_access", div(float64(timedNS[layerTLB]), a))
	m.set("walk.ns_per_walk", div(float64(timedNS[layerWalk]), float64(walks)))
	m.set("cache.ns_per_access", div(float64(timedNS[layerCache]), a))
	m.set("fault.ns_per_fault", div(float64(faultNS), float64(faults)))
	var spanned int64
	for _, ns := range timedNS {
		spanned += ns
	}
	m.set("loop.residual_ns_per_access", div(float64(wall-spanned), a))
	if o.sums != nil {
		*o.sums = layerSums{wall: wall, ns: timedNS, accesses: accesses}
	}
	m.set("trace_overhead_pct", div(float64(wall-untracedNS), float64(untracedNS))*100)
	m.set("host.allocs_per_access", div(float64(allocs), a))
	m.set("host.gc_cycles", float64(gcs))
	m.set("mehpt.kicks_per_insert", div(float64(mc.kicks), float64(mc.inserts)))
	m.set("mehpt.upsizes", float64(mc.upsizes))
	m.set("mehpt.stalls", float64(mc.stalls))
	m.set("mehpt.failed_upsizes", float64(mc.failedUpsizes))
	m.set("l2p.entries", float64(mc.l2pEntries))
	w.printModel(model)
	writeSpans(o, log)
	return m, nil
}
