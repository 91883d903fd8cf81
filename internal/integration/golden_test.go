package integration

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/addr"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/workload"
)

// The golden digests pin simulation output across commits, where the
// determinism tests only compare two runs of the same build. A refactor of
// the translation pipeline must leave every one of them unchanged; moving
// one is a deliberate model change and needs a recorded reason.

// goldenSim pins sim.Result digests: org → inject spec → digest.
var goldenSim = map[sim.Org]map[string]string{
	sim.Radix: {
		"":        "a974c8ed3a2b3200b276c4908f688364b0d0caff2d66537578b21100a9e98466",
		"nth=200": "50bdb3d84c0150b81e7964c9ca8b5fa9cf7d983d29b5a21028a702ec8a217a0a",
	},
	sim.ECPT: {
		"":        "79a24f2e7118bc8afb4df211a3d64dc4c2eda2bfb407223dbbd803812c5c1fcf",
		"nth=200": "4ff5be0737c22f10beeee8d2c93b4eb86d204455379e5d92138b9c015608cc3d",
	},
	sim.MEHPT: {
		"":        "17697d7f95219c9691d050b05fca897c16350b3bf97a297402ee38d293e6eab8",
		"nth=200": "787d4d9c661d95e2cb95ce4f245a58a4cfc8eaeb8edcdcf67936656b43632893",
	},
}

// goldenGraph pins the digest of a graph-kernel run driven through
// RunAddresses: org → inject spec → digest.
var goldenGraph = map[sim.Org]map[string]string{
	sim.Radix: {
		"":       "fa59f405bd5cfa64a93f389d05f79da3c0a9fb2c090f39fccd1e9bc76749624b",
		"nth=40": "6968d9a6614f0d3b1b1e4dcd87e051384cf22fd6d0339b28bf86732b09e925f1",
	},
	sim.ECPT: {
		"":       "1ed3ebdf56f9a37ab26ffe0353c6f80b5db03a00b713423bb4d1bd84b8326fda",
		"nth=40": "db8d0b0f02b12cab566c008ade0dbdfaa4c3a5b8022185c8b3af78c69960a5ae",
	},
	sim.MEHPT: {
		"":       "26512d826ed52e50a8cf64891badf61e54b9a52dd2c645264e4b672adcdac22c",
		"nth=40": "881dbb26b8b419f4d8bff3c312c76c6394946eb28764c1d5cf3797d6a5cbf7ba",
	},
}

// goldenTenant pins tenant.Result.Fingerprint: org → inject spec → value.
var goldenTenant = map[sim.Org]map[string]string{
	sim.Radix: {
		"":        "2d2beb854d88dfa27eef4725b7f3129b4ba331bff2758f3f0bf33bc6e5a36849",
		"nth=400": "926945f1aae7637b40eee38aa550b3f4cdd168b8081d6d7f22595e99d0356aad",
	},
	sim.ECPT: {
		"":        "86cf64c1b5b21cbd7bd4d14fbd6690a7a7007c1c23fcda356ef96059d4c5fa4e",
		"nth=400": "d1544c989ff42018236d667de4f9355e28c92584b51c115839dea37c6c394e25",
	},
	sim.MEHPT: {
		"":        "1e0972d6825de4c2df0883a2f85ea58185435bc4ded2515b5e0b33594f0e2c8b",
		"nth=400": "cd3ba665b631d9c0bbb60d5125457c2513bc22bee20b44bdeedd1e8888850aab",
	},
}

var goldenOrgs = []sim.Org{sim.Radix, sim.ECPT, sim.MEHPT}

// simDigest hashes a Result without its page-table inspection handles,
// which are pointers and differ between any two machines.
func simDigest(t *testing.T, res sim.Result) string {
	t.Helper()
	res.MEHPT, res.ECPT = nil, nil
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func goldenSimConfig(org sim.Org, inject string) sim.Config {
	spec, err := workload.ByName("BFS", 512)
	if err != nil {
		panic(err)
	}
	return sim.Config{
		Org: org, Workload: spec, Accesses: 60_000, Seed: 5,
		MemBytes: 512 * addr.MB, Inject: inject,
	}
}

func goldenTenantConfig(org sim.Org, inject string) tenant.Config {
	return tenant.Config{
		Org: org, Processes: 6, Cores: 4, MemBytes: 256 * addr.MB,
		Stripes: 4, FMFI: 0.7, Seed: 42, AccessesPerProc: 1200,
		Quantum: 200, Scale: 8192, SharedPages: 96, SharedFraction: 0.08,
		RemapsPerRound: 3, Inject: inject,
	}
}

// TestGoldenSimDigests pins trace-driven runs (Machine.Run), clean and
// with an injection policy that fails the run mid-trace.
func TestGoldenSimDigests(t *testing.T) {
	for _, org := range goldenOrgs {
		for _, inj := range []string{"", "nth=200"} {
			res := sim.Run(goldenSimConfig(org, inj))
			if res.Failed != (inj != "") {
				t.Fatalf("%v %q: failed=%v (%s)", org, inj, res.Failed, res.FailReason)
			}
			if got, want := simDigest(t, res), goldenSim[org][inj]; got != want {
				t.Errorf("%v inject=%q: digest %s, golden %s", org, inj, got, want)
			}
		}
	}
}

// TestGoldenGraphDigests pins graph-kernel runs through RunAddresses,
// clean and failing mid-kernel.
func TestGoldenGraphDigests(t *testing.T) {
	g := graph.GenerateUniform(6000, 6, 3, workload.BaseVA)
	for _, org := range goldenOrgs {
		for _, inj := range []string{"", "nth=40"} {
			m, err := sim.NewMachine(sim.Config{
				Org: org, Workload: workload.Spec{Name: "g"},
				Seed: 2, MemBytes: 512 * addr.MB, Inject: inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			var kerr error
			res := m.RunAddresses(func(emit func(addr.VirtAddr)) {
				_, kerr = g.Run("PR", emit)
			})
			if kerr != nil {
				t.Fatal(kerr)
			}
			if res.Accesses == 0 || (inj != "" && !res.Failed) {
				t.Fatalf("%v %q: degenerate run: %d accesses, failed=%v", org, inj, res.Accesses, res.Failed)
			}
			if got, want := simDigest(t, res), goldenGraph[org][inj]; got != want {
				t.Errorf("%v inject=%q: digest %s, golden %s", org, inj, got, want)
			}
		}
	}
}

// TestGoldenTenantFingerprints pins multi-tenant runs, clean and with an
// injection policy that fails tenants mid-quantum.
func TestGoldenTenantFingerprints(t *testing.T) {
	for _, org := range goldenOrgs {
		for _, inj := range []string{"", "nth=400"} {
			cfg := goldenTenantConfig(org, inj)
			res, err := tenant.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if inj != "" {
				midQuantum := 0
				for _, p := range res.Procs {
					if p.Failed && p.Accesses%cfg.Quantum != 0 {
						midQuantum++
					}
				}
				if midQuantum == 0 {
					t.Errorf("%v %q: no tenant failed mid-quantum", org, inj)
				}
			}
			if got, want := res.Fingerprint, goldenTenant[org][inj]; got != want {
				t.Errorf("%v inject=%q: fingerprint %s, golden %s", org, inj, got, want)
			}
		}
	}
}
