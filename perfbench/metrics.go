package main

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// orgDef is one page-table organization of a figure slice.
type orgDef struct {
	name string
	sim  sim.Org
}

// orgs are the organizations every workload runs, one after another.
var orgs = [...]orgDef{{"radix", sim.Radix}, {"ecpt", sim.ECPT}, {"mehpt", sim.MEHPT}}

// endToEnd collects the untraced run's measurements. Rates pool every
// repeat (all timed accesses over all timed CPU time), which averages the
// host's second-to-second noise over the whole run. Set-up time is the
// median over repeats. Peak resident memory is the mean of the repeats'
// peaks: a peak depends on where the collector's cycles fall during
// population, so a repeat lands in one of two modes about a fifth apart,
// and a median of three would flip between them. Every time is taken on the
// process CPU clock (see cpuNow): on a shared host the wall clock also
// counts time the host gives to others, and a pass's wall time spread by a
// quarter across runs of the same code.
type endToEnd struct {
	accesses [len(orgs)]uint64
	cpu      [len(orgs)]time.Duration
	passes   []float64 // each repeat's set-up + timed CPU seconds
	setups   []float64
	rss      []float64 // each repeat's resident high-water mark, MB
}

// addCell records one organization's timed phase.
func (e *endToEnd) addCell(i int, accesses uint64, timed elapsed) {
	e.accesses[i] += accesses
	e.cpu[i] += timed.cpu
}

// addRepeat records one whole repeat of the slice.
func (e *endToEnd) addRepeat(setup, timed elapsed) {
	e.setups = append(e.setups, setup.cpu.Seconds())
	e.passes = append(e.passes, (setup.cpu + timed.cpu).Seconds())
	e.rss = append(e.rss, peakRSSMB())
	resetPeakRSS()
}

func (e *endToEnd) metrics() map[string]metric {
	var accesses uint64
	var cpu time.Duration
	m := map[string]metric{
		"pass_cpu_s":  {median(e.passes), "s"},
		"setup_s":     {median(e.setups), "s"},
		"peak_rss_mb": {mean(e.rss), "MB"},
	}
	for i, o := range orgs {
		accesses += e.accesses[i]
		cpu += e.cpu[i]
		m["sim_accesses_per_s."+o.name] = metric{div(float64(e.accesses[i]), e.cpu[i].Seconds()), "1/s"}
	}
	m["sim_accesses_per_s"] = metric{div(float64(accesses), cpu.Seconds()), "1/s"}
	return m
}

// Per-layer metric names and units. Every workload reports all of them; a
// layer the workload does not drive through the benchmark's spans reads 0.
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"workload.ns_per_access":      "ns",
		"trace.ns_per_access":         "ns",
		"tlb.ns_per_access":           "ns",
		"walk.ns_per_walk":            "ns",
		"cache.ns_per_access":         "ns",
		"fault.ns_per_fault":          "ns",
		"loop.residual_ns_per_access": "ns",
		"tenant.round_us_p50":         "us",
		"tenant.round_us_p99":         "us",
		"tenant.ns_per_access":        "ns",
		"trace_overhead_pct":          "%",
		"mehpt.kicks_per_insert":      "ratio",
		"mehpt.upsizes":               "count",
		"mehpt.stalls":                "count",
		"mehpt.failed_upsizes":        "count",
		"l2p.entries":                 "count",
		"host.allocs_per_access":      "ratio",
		"host.gc_cycles":              "count",
	}
	perOrg := map[string]string{
		"walk.ns_per_walk":           "ns",
		"tlb.l1_hit_frac":            "ratio",
		"tlb.l2_hit_frac":            "ratio",
		"tlb.batch_fill":             "ratio",
		"walk.per_access":            "ratio",
		"walk.cycles_per_walk":       "cycles",
		"cache.dram_refs_per_access": "ratio",
		"os.faults":                  "count",
		"pt.moves":                   "count",
		"pt.alloc_cycles":            "cycles",
		"pt.peak_bytes":              "bytes",
		"sim.cycles_per_access":      "cycles",
		"tenant.shootdowns":          "count",
		"tenant.ipis":                "count",
		"tenant.pool_failed_allocs":  "count",
	}
	for name, unit := range perOrg {
		for _, o := range orgs {
			u[name+"."+o.name] = unit
		}
	}
	return u
}()

// layerMetrics is a traced run's per-layer report, pre-filled with zeros.
type layerMetrics map[string]metric

func newLayerMetrics() layerMetrics {
	m := layerMetrics{}
	for name, unit := range perLayerUnits {
		m[name] = metric{0, unit}
	}
	return m
}

// set records one value; an unknown name is a bug in the benchmark.
func (m layerMetrics) set(name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: unknown per-layer metric %q", name))
	}
	mt.Value = v
	m[name] = mt
}
