package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// layer names a simulator layer the traced run times from outside, around
// the layer's public entry points.
type layer int

const (
	layerWorkload layer = iota // workload.Trace.NextBatch (trace generation)
	layerTrace                 // trace.Stream NextBatch (MEHPTBT1 decode)
	layerTLB                   // mmu TranslateBatchPAs (batched TLB lookup)
	layerWalk                  // mmu TranslateWalk / Translate after a full TLB miss
	layerCache                 // cache.Hierarchy AccessBatch / Access (data references)
	layerFault                 // osmodel.OS.HandleFault (fault + allocator + resize)
	layerTenant                // tenant.Machine.StepRound (one scheduling round)
	numLayers
)

var layerNames = [numLayers]string{"workload", "trace", "tlb", "walk", "cache", "fault", "tenant"}

// span is one sampled layer call. Spans caused by the same batch of
// accesses (or the same scheduling round) share Batch, which identifies
// their parent.
type span struct {
	Org   string `json:"org"`
	Phase string `json:"phase"`
	Batch uint64 `json:"batch"`
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

// spansPerTracer bounds the span sample each tracer keeps, so that every
// phase of every organization is represented and the whole sample stays
// bounded (a run has at most seven tracers).
const spansPerTracer = 4096

// spanLog is the bounded in-memory span sample of one run.
type spanLog struct {
	spans []span
}

// write stores the sample as JSON lines at path.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans stores the run's span sample where the options ask; a write
// failure loses only the sample, not the run's metrics.
func writeSpans(o options, l *spanLog) {
	if o.spans == "" {
		return
	}
	if err := l.write(o.spans); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
}

// tracer accumulates the self time and call count of every layer for one
// phase (set-up or timed) of one cell. Layer spans never nest — each wraps
// one call into a different layer — so a span's duration is its self time.
type tracer struct {
	base  time.Time
	org   string
	phase string
	log   *spanLog
	batch uint64 // the current parent: the batch or round being processed
	// every is the sampling stride: every every-th batch keeps all of its
	// spans, until this tracer has kept spansPerTracer.
	every uint64
	kept  int
	ns    [numLayers]int64
}

func newTracer(log *spanLog, org, phase string, every uint64) *tracer {
	return &tracer{base: time.Now(), org: org, phase: phase, log: log, every: every}
}

// now is the monotonic offset from the tracer's base.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// end closes the span of layer l that started at start.
func (t *tracer) end(l layer, start int64) {
	d := t.now() - start
	t.ns[l] += d
	if t.batch%t.every == 0 && t.kept < spansPerTracer {
		t.kept++
		t.log.spans = append(t.log.spans, span{Org: t.org, Phase: t.phase,
			Batch: t.batch, Layer: layerNames[l], Start: start, Dur: d})
	}
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow is the CPU time the process has used so far, over all its threads
// (the simulating goroutine plus the collector), user and system. Time the
// hypervisor steals and time other processes run is not counted, which makes
// rates steadier than wall-clock ones on a shared host.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("perfbench: clock_gettime: %v", e))
	}
	return time.Duration(ts.Nano())
}

// stamp is a point in time on both the wall clock and the CPU clock.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), cpuNow()} }

// elapsed is the wall-clock and CPU time between two stamps.
type elapsed struct {
	wall, cpu time.Duration
}

func since(s stamp) elapsed {
	e := now()
	return elapsed{e.wall.Sub(s.wall), e.cpu - s.cpu}
}

func (e elapsed) add(o elapsed) elapsed { return elapsed{e.wall + o.wall, e.cpu + o.cpu} }

// hostCounters reads the Go runtime's allocation and collection counters.
type hostCounters struct {
	allocs, gcs uint64
}

var hostSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readHost() hostCounters {
	metrics.Read(hostSamples)
	return hostCounters{allocs: hostSamples[0].Value.Uint64(), gcs: hostSamples[1].Value.Uint64()}
}

func (h hostCounters) sub(o hostCounters) hostCounters {
	return hostCounters{allocs: h.allocs - o.allocs, gcs: h.gcs - o.gcs}
}

// peakRSSMB is the process's resident-memory high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if f := strings.Fields(ln); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// resident high-water mark, so that the next repeat's peak is its own.
// Where the kernel refuses the reset, peaks accumulate over the run.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// div is a/b, or 0 when b is 0 (a layer the workload does not exercise).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// mean is the average of xs.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return div(s, float64(len(xs)))
}

// median is the middle value of xs (the mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
