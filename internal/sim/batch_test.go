package sim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/trace"
)

// batchCfg is a small machine for the differential tests: unfragmented so
// construction is fast, big enough that every access class (fault, walk, TLB
// hit at both levels, DRAM data miss) occurs.
func batchCfg(org Org, inject string) Config {
	return Config{
		Org:      org,
		Seed:     13,
		MemBytes: 256 * addr.MB,
		Inject:   inject,
	}
}

// batchTestVAs is a seeded access stream over a working set wider than the
// TLBs: a hot region for steady-state hits plus a broad region that keeps
// faulting new pages in.
func batchTestVAs(seed int64, n int) []addr.VirtAddr {
	rng := rand.New(rand.NewSource(seed))
	base := addr.VirtAddr(0x4000_0000)
	vas := make([]addr.VirtAddr, n)
	for i := range vas {
		if rng.Intn(4) == 0 {
			vas[i] = base + addr.VirtAddr(rng.Intn(8192))*4096
		} else {
			vas[i] = base + addr.VirtAddr(rng.Intn(128))*4096
		}
	}
	return vas
}

// scalarOracle replays vas through a per-reference scalar loop — scalar
// Translate, OS fault handling, a retried Translate, and a scalar cache
// Access for every element — the reference every driver of the batched
// pipeline must match bit-for-bit.
func scalarOracle(t *testing.T, cfg Config, vas []addr.VirtAddr) Result {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := Result{Org: cfg.Org, Workload: "stream", THP: cfg.THP}
	for _, va := range vas {
		res.Accesses++
		r := m.pipe.MMU.Translate(va)
		res.XlatCycles += r.Cycles
		if r.Fault {
			cycles, err := m.pipe.OS.HandleFault(va)
			res.OSCycles += cycles
			if err != nil {
				res.Failed = true
				res.FailReason = err.Error()
				break
			}
			r = m.pipe.MMU.Translate(va)
			res.XlatCycles += r.Cycles
			if r.Fault {
				res.Failed = true
				res.FailReason = "fault persisted after OS handling"
				break
			}
		}
		res.DataCycles += m.pipe.Cache.Access(r.PA) / DataMLP
	}
	m.finish(&res)
	return res
}

// pushRun replays vas through RunAddresses, one emit call per reference.
func pushRun(t *testing.T, cfg Config, vas []addr.VirtAddr) Result {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.RunAddresses(func(emit func(va addr.VirtAddr)) {
		for _, va := range vas {
			emit(va)
		}
	})
}

// batchedRun replays vas through the batched loop, filling at most fill
// addresses per NextBatch call so partial and width-1 batches are exercised.
func batchedRun(t *testing.T, cfg Config, vas []addr.VirtAddr, fill int) Result {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	return m.RunBatches(func(out []addr.VirtAddr) int {
		k := fill
		if k > len(out) {
			k = len(out)
		}
		if k > len(vas)-pos {
			k = len(vas) - pos
		}
		copy(out[:k], vas[pos:pos+k])
		pos += k
		return k
	})
}

// assertSameResult compares two Results field-for-field, ignoring only the
// organization-specific inspection handles (distinct machines necessarily
// hold distinct page-table pointers).
func assertSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	got.MEHPT, got.ECPT = nil, nil
	want.MEHPT, want.ECPT = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: batched run diverges from scalar:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestBatchedLoopMatchesScalar is the end-to-end bit-identity property the
// batched pipeline claims: for every organization and for batch fills of 1,
// a non-multiple of the width, and the full width, RunBatches must produce
// exactly the Result (cycles, stats, page-table metrics) of the scalar loop,
// and so must RunAddresses, which buffers emitted references into batches.
func TestBatchedLoopMatchesScalar(t *testing.T) {
	vas := batchTestVAs(29, 6000)
	for _, org := range []Org{Radix, ECPT, MEHPT} {
		cfg := batchCfg(org, "")
		want := scalarOracle(t, cfg, vas)
		if want.Failed {
			t.Fatalf("%v: scalar oracle failed: %s", org, want.FailReason)
		}
		if want.MMU.Walks == 0 || want.OS.Faults == 0 {
			t.Fatalf("%v: stream too tame (walks=%d faults=%d)", org, want.MMU.Walks, want.OS.Faults)
		}
		for _, fill := range []int{1, 5, 31, 64} {
			got := batchedRun(t, cfg, vas, fill)
			assertSameResult(t, org.String(), got, want)
		}
		assertSameResult(t, org.String()+" RunAddresses", pushRun(t, cfg, vas), want)
	}
}

// TestBatchedLoopMatchesScalarUnderInjection repeats the differential with a
// fault-injection policy that kills the run mid-stream: the batched loop
// and RunAddresses must fail at the same access, with the same accumulated
// state, as the scalar loop (RunAddresses ignoring references emitted after
// the failure).
func TestBatchedLoopMatchesScalarUnderInjection(t *testing.T) {
	vas := batchTestVAs(31, 6000)
	for _, org := range []Org{Radix, ECPT, MEHPT} {
		cfg := batchCfg(org, "nth=200")
		want := scalarOracle(t, cfg, vas)
		if !want.Failed {
			t.Fatalf("%v: injection did not kill the scalar run", org)
		}
		for _, fill := range []int{1, 31, 64} {
			got := batchedRun(t, cfg, vas, fill)
			assertSameResult(t, org.String(), got, want)
		}
		assertSameResult(t, org.String()+" RunAddresses", pushRun(t, cfg, vas), want)
	}
}

// TestBatchedLoopEmptySource: a producer that returns zero immediately ends
// the run cleanly with nothing accounted.
func TestBatchedLoopEmptySource(t *testing.T) {
	res := batchedRun(t, batchCfg(MEHPT, ""), nil, 64)
	if res.Failed || res.Accesses != 0 || res.Cycles != 0 {
		t.Errorf("empty source: %+v", res)
	}
}

// TestRunStreamMatchesRunBatches closes the loop with the trace engine: a
// binary trace replayed through RunStream must equal the same addresses fed
// through RunBatches and through the scalar loop.
func TestRunStreamMatchesRunBatches(t *testing.T) {
	vas := batchTestVAs(37, 4000)
	cfg := batchCfg(ECPT, "")
	want := batchedRun(t, cfg, vas, 64)
	assertSameResult(t, "RunBatches", want, scalarOracle(t, cfg, vas))

	var buf bytes.Buffer
	if err := trace.WriteBinaryVAs(&buf, vas); err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := trace.OpenStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.RunStream(s)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "binary replay", got, want)
}
