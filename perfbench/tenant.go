package main

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/runner"
	"repro/internal/tenant"
)

// The tenant-mix machine: tenants cycle through the paper's applications
// on a few simulated cores, allocating from the striped pool at 0.7 FMFI.
// The shared segment and its remaps keep their defaults, and nothing is
// pre-populated, so page tables grow through faults while tenants run.
const (
	tenantProcesses = 8
	tenantCores     = 4
	// tenantScale divides the applications' footprints.
	tenantScale = 256
)

func tenantConfig(o orgDef, seed int64, p plan) tenant.Config {
	return tenant.Config{
		Org:             o.sim,
		Processes:       tenantProcesses,
		Cores:           tenantCores,
		FMFI:            ambientFMFI,
		Seed:            runner.DeriveSeed(seed, "tenant-mix", o.sim.String(), false, ""),
		AccessesPerProc: p.accesses,
		Scale:           p.scale,
	}
}

// tenantCell is one organization's tenant machine run.
type tenantCell struct {
	setup, timed elapsed
	res          *tenant.Result
	host         hostCounters
	rounds       []float64 // traced runs: each StepRound's host time, ns
}

// runTenant builds the machine and steps it to completion, the way
// tenant.Run does. A non-nil tracer times every scheduling round.
func runTenant(cfg tenant.Config, t *tracer) (tenantCell, error) {
	runtime.GC()
	t0 := now()
	m, err := tenant.NewMachine(cfg)
	if err != nil {
		return tenantCell{}, err
	}
	c := tenantCell{setup: since(t0)}
	h0 := readHost()
	t1 := now()
	for !m.Done() {
		if t == nil {
			err = m.StepRound()
		} else {
			t.batch++
			before := t.ns[layerTenant]
			s := t.now()
			err = m.StepRound()
			t.end(layerTenant, s)
			c.rounds = append(c.rounds, float64(t.ns[layerTenant]-before))
		}
		if err != nil {
			return tenantCell{}, err
		}
	}
	c.res = m.Collect()
	c.timed = since(t1)
	c.host = readHost().sub(h0)
	return c, checkTenant(c.res, cfg)
}

// accesses is the simulated access count of a tenant run.
func (c tenantCell) accesses() uint64 {
	var n uint64
	for _, p := range c.res.Procs {
		n += p.Accesses
	}
	return n
}

// checkTenant rejects a run in which a tenant failed or the machine
// simulated a different number of accesses than requested.
func checkTenant(res *tenant.Result, cfg tenant.Config) error {
	var n uint64
	for _, p := range res.Procs {
		if p.Failed {
			return fmt.Errorf("tenant %d (%s) failed: %s", p.PID, p.Workload, p.Failure)
		}
		n += p.Accesses
	}
	if want := uint64(cfg.Processes) * cfg.AccessesPerProc; n != want {
		return fmt.Errorf("simulated %d accesses, requested %d", n, want)
	}
	return nil
}

func runTenantMix(o options, p plan, ck *checker) (map[string]metric, error) {
	if o.traced {
		return tracedTenant(o, p, ck), nil
	}
	var e endToEnd
	var first [len(orgs)]string
	for r := 0; r < p.repeats; r++ {
		var setup, timed elapsed
		for k := range orgs {
			// Rotate the order across repeats, so that no organization
			// always runs first or last in a pass.
			i := (k + r) % len(orgs)
			og := orgs[i]
			c, err := runTenant(tenantConfig(og, o.seed, p), nil)
			if err == nil && r > 0 && c.res.Fingerprint != first[i] {
				err = errors.New("fingerprint differs from the first repeat of the same seed")
			}
			ck.op(fmt.Sprintf("tenant-mix/%s/repeat%d", og.name, r), err)
			if err != nil {
				continue
			}
			if r == 0 {
				first[i] = c.res.Fingerprint
			}
			setup = setup.add(c.setup)
			timed = timed.add(c.timed)
			e.addCell(i, c.accesses(), c.timed)
		}
		e.addRepeat(setup, timed)
	}
	return e.metrics(), nil
}

// tracedTenant runs every organization untraced, then with a span around
// each scheduling round, and checks both land on the same fingerprint.
func tracedTenant(o options, p plan, ck *checker) map[string]metric {
	log := &spanLog{}
	m := newLayerMetrics()
	var (
		accesses         uint64
		wall, untracedNS int64
		spanNS           int64
		allocs, gcs      uint64
		rounds           []float64
	)
	for _, og := range orgs {
		cfg := tenantConfig(og, o.seed, p)
		ref, err := runTenant(cfg, nil)
		if err != nil {
			ck.op(fmt.Sprintf("tenant-mix/%s/traced", og.name), fmt.Errorf("untraced: %w", err))
			continue
		}
		t := newTracer(log, og.name, "timed", 1)
		c, err := runTenant(cfg, t)
		if err == nil && c.res.Fingerprint != ref.res.Fingerprint {
			err = fmt.Errorf("traced fingerprint %s differs from untraced %s", c.res.Fingerprint, ref.res.Fingerprint)
		}
		ck.op(fmt.Sprintf("tenant-mix/%s/traced", og.name), err)
		if err != nil {
			continue
		}
		a := float64(c.accesses())
		accesses += c.accesses()
		wall += int64(c.timed.wall)
		untracedNS += int64(ref.timed.wall)
		spanNS += t.ns[layerTenant]
		allocs += ref.host.allocs
		gcs += ref.host.gcs
		rounds = append(rounds, c.rounds...)
		r := c.res
		var faults, cycles uint64
		for _, pr := range r.Procs {
			faults += pr.Faults
			cycles += pr.XlatCycles + pr.DataCycles + pr.OSCycles
		}
		sfx := "." + og.name
		m.set("walk.per_access"+sfx, div(float64(r.Walks), a))
		m.set("walk.cycles_per_walk"+sfx, div(float64(r.WalkCycles), float64(r.Walks)))
		m.set("os.faults"+sfx, float64(faults))
		m.set("sim.cycles_per_access"+sfx, div(float64(cycles), a))
		m.set("tenant.shootdowns"+sfx, float64(r.Shootdowns.Events))
		m.set("tenant.ipis"+sfx, float64(r.Shootdowns.IPIsDelivered))
		m.set("tenant.pool_failed_allocs"+sfx, float64(r.PoolFailedAllocs))
	}
	a := float64(accesses)
	m.set("tenant.round_us_p50", quantile(rounds, 0.50)/1e3)
	m.set("tenant.round_us_p99", quantile(rounds, 0.99)/1e3)
	m.set("tenant.ns_per_access", div(float64(spanNS), a))
	m.set("loop.residual_ns_per_access", div(float64(wall-spanNS), a))
	m.set("trace_overhead_pct", div(float64(wall-untracedNS), float64(untracedNS))*100)
	m.set("host.allocs_per_access", div(float64(allocs), a))
	m.set("host.gc_cycles", float64(gcs))
	if o.sums != nil {
		var ns [numLayers]int64
		ns[layerTenant] = spanNS
		*o.sums = layerSums{wall: wall, ns: ns, accesses: accesses}
	}
	writeSpans(o, log)
	return m
}
