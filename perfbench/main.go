// Command perfbench is the repository's end-to-end benchmark: it runs one
// named workload — a slice of a paper figure across the radix, ECPT and
// ME-HPT organizations — checks that the simulated results are correct, and
// prints every metric with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (throughput, CPU time
// per pass, set-up time, peak memory). With -trace 1 the run wires the same
// pipeline from the layers' public constructors, times every layer call,
// and reports per-layer host time and exact work counts instead.
//
// Usage:
//
//	perfbench -workload graph-bfs|gups-walk|tenant-mix -seed N -seconds S -trace 0|1
//
// The load shape is a closed loop with one client: a single host goroutine
// issues the next simulated access only after the previous one completes.
// The workload inputs are a pure function of -seed and -seconds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's machine-readable result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker counts operations (simulated cells) and the ones that failed a
// correctness check.
type checker struct {
	attempted, failed int
}

// op records one operation; a non-nil err marks it failed.
func (c *checker) op(name string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", name, err)
	}
}

// options is one invocation of a workload.
type options struct {
	seed    int64
	seconds int
	traced  bool
	// spans is the file the traced run writes its span sample to; empty
	// keeps the sample in memory only.
	spans string
	// plan overrides the size derived from seconds (tests run tiny sizes).
	plan *plan
	// sums, when set, receives the traced timed phase's raw totals.
	sums *layerSums
}

// layerSums is the traced timed phase summed over organizations: its wall
// time and each layer's self time in nanoseconds. What the spans do not
// cover is the loop's own residual.
type layerSums struct {
	wall     int64
	ns       [numLayers]int64
	accesses uint64
}

// plan sizes one run of a workload.
type plan struct {
	// scale divides workload footprints (1 = the paper's full scale).
	scale uint64
	// accesses is the timed trace length per cell (graph-bfs, gups-walk) or
	// the access budget per tenant process (tenant-mix).
	accesses uint64
	// repeats is how many times the untraced run builds and runs the whole
	// three-organization slice; metrics are medians over repeats.
	repeats int
}

// bench is one named workload.
type bench struct {
	name string
	// rate turns -seconds into a fixed access count: a run times rate ×
	// seconds accesses, split evenly over organizations and repeats (per
	// tenant, on tenant-mix). It is a constant, so the inputs never depend
	// on how fast the host happens to be.
	rate  float64
	scale uint64
	run   func(o options, p plan, ck *checker) (map[string]metric, error)
}

// repeats is the untraced run's repeat count: enough for a median.
const repeats = 3

// spansDir is where traced runs write their span samples, relative to the
// checkout the benchmark runs from.
const spansDir = ".bench_build/perfbench-spans"

var benches = []bench{
	{name: "graph-bfs", rate: 3_200_000, scale: 1, run: graphBFS.run},
	{name: "gups-walk", rate: 1_000_000, scale: 1, run: gupsWalk.run},
	{name: "tenant-mix", rate: 3_300_000 / tenantProcesses, scale: tenantScale, run: runTenantMix},
}

func lookup(name string) (bench, bool) {
	for _, b := range benches {
		if b.name == name {
			return b, true
		}
	}
	return bench{}, false
}

// planFor derives a workload's size from the measuring budget: the timed
// accesses are spread over three organizations and the repeats.
func (b bench) planFor(seconds int) plan {
	per := b.rate * float64(seconds) / float64(len(orgs)*repeats)
	return plan{scale: b.scale, accesses: uint64(per), repeats: repeats}
}

// execute runs one workload and assembles its report.
func execute(b bench, o options) (report, error) {
	p := b.planFor(o.seconds)
	if o.plan != nil {
		p = *o.plan
	}
	var ck checker
	ms, err := b.run(o, p, &ck)
	if err != nil {
		return report{}, err
	}
	return report{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: ms}, nil
}

func main() {
	name := flag.String("workload", "", "workload: graph-bfs, gups-walk or tenant-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measuring budget in host seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()

	b, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload graph-bfs|gups-walk|tenant-mix, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	// One client on at most two host CPUs, so the collector has a core of
	// its own and results do not depend on the host's core count.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1}
	if o.traced {
		if err := os.MkdirAll(spansDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		o.spans = filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", b.name, *seed))
	}
	rep, err := execute(b, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.name, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "%-34s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
