package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/workload"
)

// tinyPlans size every workload for a quick run.
var tinyPlans = map[string]plan{
	"graph-bfs":  {scale: 256, accesses: 20_000, repeats: 2},
	"gups-walk":  {scale: 256, accesses: 20_000, repeats: 2},
	"tenant-mix": {scale: 4096, accesses: 3_000, repeats: 2},
}

// declared is the metric set BENCHMARK.json declares.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// checkMetrics asserts that got holds exactly the declared names, each with
// its declared unit.
func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", name)
		case m.Unit != unit:
			t.Errorf("metric %s printed in %q, declared in %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s printed but not declared", name)
		}
	}
}

// TestSelfTest runs every declared workload at a tiny size, untraced and
// traced, and checks the printed metrics against BENCHMARK.json and the
// traced run's layer accounting against its wall time.
func TestSelfTest(t *testing.T) {
	d := loadDeclared(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		layers[m.Name] = m.Unit
	}
	if len(layers) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the benchmark reports %d", len(layers), len(perLayerUnits))
	}
	for _, w := range d.Workloads {
		b, ok := lookup(w.Name)
		if !ok {
			t.Fatalf("workload %s declared but not implemented", w.Name)
		}
		p := tinyPlans[w.Name]
		t.Run(w.Name, func(t *testing.T) {
			rep, err := execute(b, options{seed: 7, seconds: 1, plan: &p})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted != p.repeats*len(orgs) {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			checkMetrics(t, rep.Metrics, e2e)
			for name, m := range rep.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			var sums layerSums
			rep, err = execute(b, options{seed: 7, seconds: 1, traced: true, plan: &p, sums: &sums})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted != len(orgs) {
				t.Fatalf("traced run: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			checkMetrics(t, rep.Metrics, layers)

			// Layer self times plus the residual make up the timed wall.
			var spanned int64
			for _, ns := range sums.ns {
				spanned += ns
			}
			residual := sums.wall - spanned
			if sums.wall <= 0 || residual < 0 {
				t.Fatalf("timed wall %d ns, spans %d ns: spans must fit inside the wall", sums.wall, spanned)
			}
			got := rep.Metrics["loop.residual_ns_per_access"].Value * float64(sums.accesses)
			if math.Abs(got-float64(residual)) > 1e-6*float64(sums.wall) {
				t.Errorf("printed residual × accesses = %v ns, want wall - spans = %d ns", got, residual)
			}
		})
	}
}

// TestReplayMatchesGenerator shows that replaying the recorded MEHPTBT1
// trace simulates exactly what feeding the generator directly does, for
// every organization, on a short gups-walk prefix.
func TestReplayMatchesGenerator(t *testing.T) {
	scale := uint64(1)
	if testing.Short() {
		scale = 64
	}
	spec, err := workload.ByName(gupsWalk.app, scale)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 3
	p := plan{scale: scale, accesses: 50_000, repeats: 1}
	rec, err := record(spec, traceSeed(seed), p.accesses, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct := gupsWalk
	direct.replay = false
	for _, o := range orgs {
		replayed, err := gupsWalk.cell(spec, o, seed, p, rec)
		if err != nil {
			t.Fatalf("%s replay: %v", o.name, err)
		}
		generated, err := direct.cell(spec, o, seed, p, nil)
		if err != nil {
			t.Fatalf("%s generator: %v", o.name, err)
		}
		if replayed.res != generated.res {
			t.Errorf("%s: replayed %+v\n generated %+v", o.name, replayed.res, generated.res)
		}
		if replayed.res.MMU.Walks == 0 {
			t.Errorf("%s: no page walks; the prefix does not exercise the walk-bound regime", o.name)
		}
	}
}
