package cache

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/addr"
)

// oracleLevel is a deliberately naive set-associative LRU cache level: each
// set is a slice of line numbers, MRU first, rebuilt with slices.Insert and
// slices.Delete, and the set index is a plain modulo. It shares no code
// with Cache — no flat tag array, no mask, no promote/fillFront — so a bug
// in the optimized level's LRU or set indexing cannot hide in both.
type oracleLevel struct {
	sets    [][]uint64
	ways    int
	line    uint64
	latency uint64
	stats   Stats
}

func newOracleLevel(cfg Config) oracleLevel {
	sets := cfg.SizeBytes / cfg.LineBytes / uint64(cfg.Ways)
	if sets == 0 {
		sets = 1
	}
	return oracleLevel{sets: make([][]uint64, sets), ways: cfg.Ways, line: cfg.LineBytes, latency: cfg.Latency}
}

func (l *oracleLevel) setOf(pa addr.PhysAddr) (*[]uint64, uint64) {
	ln := uint64(pa) / l.line
	return &l.sets[ln%uint64(len(l.sets))], ln
}

// oracleHierarchy is the naive inclusive L1/L2/L3/DRAM model: probe levels
// in order, move a hit to MRU, and insert the line at MRU in every level
// that missed, dropping each full set's LRU line.
type oracleHierarchy struct {
	levels  [3]oracleLevel
	dramLat uint64
	dram    uint64
}

func newOracleHierarchy(cfg HierarchyConfig) *oracleHierarchy {
	return &oracleHierarchy{
		levels:  [3]oracleLevel{newOracleLevel(cfg.L1), newOracleLevel(cfg.L2), newOracleLevel(cfg.L3)},
		dramLat: cfg.DRAMLatency,
	}
}

func (o *oracleHierarchy) access(pa addr.PhysAddr) uint64 {
	lat, hit := o.dramLat, len(o.levels)
	for i := range o.levels {
		l := &o.levels[i]
		set, ln := l.setOf(pa)
		if k := slices.Index(*set, ln); k >= 0 {
			l.stats.Hits++
			*set = slices.Insert(slices.Delete(*set, k, k+1), 0, ln)
			lat, hit = l.latency, i
			break
		}
		l.stats.Misses++
	}
	if hit == len(o.levels) {
		o.dram++
	}
	for i := 0; i < hit; i++ {
		l := &o.levels[i]
		set, ln := l.setOf(pa)
		*set = slices.Insert(*set, 0, ln)
		if len(*set) > l.ways {
			*set = slices.Delete(*set, l.ways, len(*set))
		}
	}
	return lat
}

// oracleConfigs are the geometries the oracle checks: the paper's, the
// tenant machine's (tenant.tenantCacheConfig), and one whose set counts are
// not powers of two (40, 200 and 1000 sets) and whose L3 line is wider,
// which forces the modulo set index and per-level line numbers.
func oracleConfigs() []struct {
	name string
	cfg  HierarchyConfig
} {
	return []struct {
		name string
		cfg  HierarchyConfig
	}{
		{"TableIII", TableIII()},
		{"tenant", HierarchyConfig{
			L1:          Config{SizeBytes: 32 * addr.KB, Ways: 8, LineBytes: 64, Latency: 2},
			L2:          Config{SizeBytes: 128 * addr.KB, Ways: 8, LineBytes: 64, Latency: 16},
			L3:          Config{SizeBytes: 512 * addr.KB, Ways: 16, LineBytes: 64, Latency: 56},
			DRAMLatency: 200,
		}},
		{"non-pow2", HierarchyConfig{
			L1:          Config{SizeBytes: 40 * 8 * 64, Ways: 8, LineBytes: 64, Latency: 3},
			L2:          Config{SizeBytes: 200 * 10 * 64, Ways: 10, LineBytes: 64, Latency: 11},
			L3:          Config{SizeBytes: 1000 * 12 * 128, Ways: 12, LineBytes: 128, Latency: 37},
			DRAMLatency: 150,
		}},
	}
}

// TestAccessMatchesOracle drives 10⁶ random accesses per geometry through
// the real hierarchy — alternating AccessBatch segments of random length
// with scalar Access calls and walker AccessPT references — and through the
// naive model, requiring the same latency for every access and the same
// per-level Stats and DRAMAccesses throughout. The address mix is sized to
// each geometry so every lane (L1 hit, L2 hit, L3 hit, DRAM fill, with and
// without eviction) runs many times.
func TestAccessMatchesOracle(t *testing.T) {
	const accesses = 1_000_000
	for _, tc := range oracleConfigs() {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			h := NewHierarchy(cfg)
			o := newOracleHierarchy(cfg)
			rng := rand.New(rand.NewSource(11))
			// Regions sized to half of L1, L2 and L3, then 64× L3; byte-
			// granular addresses keep same-line accesses in the mix.
			regions := []uint64{cfg.L1.SizeBytes / 2, cfg.L2.SizeBytes / 2, cfg.L3.SizeBytes / 2, 64 * cfg.L3.SizeBytes}
			draw := func() addr.PhysAddr {
				r := regions[rng.Intn(len(regions))]
				return addr.PhysAddr(rng.Int63n(int64(r)))
			}
			lanes := map[uint64]int{}
			var pas [64]addr.PhysAddr // the simulator's batch width
			var lats [64]uint64
			for done := 0; done < accesses; {
				switch k := rng.Intn(len(pas) + 1); {
				case k == 0:
					pa := draw()
					h.AccessPT(pa)
					o.dram++
				case k == 1:
					pa := draw()
					got, want := h.Access(pa), o.access(pa)
					if got != want {
						t.Fatalf("access %d (pa %#x): Access latency %d, oracle %d", done, pa, got, want)
					}
					lanes[got]++
					done++
				default:
					for i := range pas[:k] {
						pas[i] = draw()
					}
					h.AccessBatch(pas[:k], lats[:k])
					for i, pa := range pas[:k] {
						if want := o.access(pa); lats[i] != want {
							t.Fatalf("access %d (pa %#x): AccessBatch latency %d, oracle %d", done+i, pa, lats[i], want)
						}
						lanes[lats[i]]++
					}
					done += k
				}
				for lvl := range o.levels {
					if got, want := h.Level(lvl).Stats(), o.levels[lvl].stats; got != want {
						t.Fatalf("after %d accesses: L%d stats %+v, oracle %+v", done, lvl+1, got, want)
					}
				}
				if h.DRAMAccesses() != o.dram {
					t.Fatalf("after %d accesses: DRAM accesses %d, oracle %d", done, h.DRAMAccesses(), o.dram)
				}
			}
			for _, lat := range []uint64{cfg.L1.Latency, cfg.L2.Latency, cfg.L3.Latency, cfg.DRAMLatency} {
				if lanes[lat] < accesses/100 {
					t.Errorf("latency-%d lane ran %d times; the mix no longer exercises it", lat, lanes[lat])
				}
			}
		})
	}
}
