package pt

import (
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/addr"
)

// TestArenaElementsNeverMove pins the arena's central guarantee: a pointer
// from At stays valid, and keeps its contents, however many elements are
// allocated after it.
func TestArenaElementsNeverMove(t *testing.T) {
	var a Arena[Cluster]
	first := a.Alloc()
	p := a.At(first)
	p.Set(3, 77)
	for i := 0; i < 100_000; i++ {
		a.At(a.Alloc()).Set(0, 1)
	}
	if a.At(first) != p {
		t.Fatal("element moved after later allocations")
	}
	if ppn, ok := p.Get(3); !ok || ppn != 77 || p.Count() != 1 {
		t.Fatalf("element contents changed: %+v", *p)
	}
	if a.Live() != 100_001 {
		t.Errorf("Live = %d, want 100001", a.Live())
	}
}

// TestArenaAllocsGrowLogarithmically checks that segments double: filling
// an arena with n elements costs O(log n) heap allocations, not O(n).
func TestArenaAllocsGrowLogarithmically(t *testing.T) {
	for _, n := range []int{10, 1_000, 100_000} {
		allocs := testing.AllocsPerRun(3, func() {
			var a Arena[uint64]
			for i := 0; i < n; i++ {
				a.Alloc()
			}
		})
		// One per segment plus the growth of the segment table.
		if limit := float64(2 * bits.Len(uint(n))); allocs > limit {
			t.Errorf("n=%d: %.0f allocations, want at most %.0f", n, allocs, limit)
		}
	}
}

func TestArenaSegmentBoundaries(t *testing.T) {
	var a Arena[uint64]
	const n = 5000
	for i := uint64(0); i < n; i++ {
		if id := a.Alloc(); id != i {
			t.Fatalf("Alloc #%d returned id %d", i, id)
		}
		*a.At(i) = i * 3
	}
	seen := map[*uint64]bool{}
	for i := uint64(0); i < n; i++ {
		p := a.At(i)
		if *p != i*3 {
			t.Fatalf("At(%d) = %d, want %d", i, *p, i*3)
		}
		if seen[p] {
			t.Fatalf("At(%d) aliases another id", i)
		}
		seen[p] = true
	}
	if got := a.elems(); len(got) != n || got[n-1] != (n-1)*3 {
		t.Fatalf("elems: len %d", len(got))
	}
	// n falls inside the last segment's capacity but was never allocated.
	defer func() {
		if recover() == nil {
			t.Error("At(n) did not panic")
		}
	}()
	a.At(n)
}

// TestArenaFreeListIsLIFO pins the recycling order snapshots depend on.
func TestArenaFreeListIsLIFO(t *testing.T) {
	var a Arena[Cluster]
	for i := 0; i < 10; i++ {
		a.Alloc()
	}
	a.At(4).Set(1, 9)
	a.Free(2)
	a.Free(4)
	if id := a.Alloc(); id != 4 {
		t.Fatalf("first recycled id = %d, want 4", id)
	}
	if !a.At(4).Empty() {
		t.Error("recycled element not zeroed")
	}
	if id := a.Alloc(); id != 2 {
		t.Fatalf("second recycled id = %d, want 2", id)
	}
	if id := a.Alloc(); id != 10 {
		t.Fatalf("fresh id = %d, want 10", id)
	}
}

func TestSlabStateRoundTrip(t *testing.T) {
	var s Slab
	for i := 0; i < 100; i++ {
		s.At(s.Alloc()).Set(uint(i%ClusterSpan), addr.PPN(1000+i))
	}
	s.Free(17)
	s.Free(3)
	st := s.State()
	var r Slab
	r.Restore(st)
	if !reflect.DeepEqual(r.State(), st) {
		t.Fatal("State→Restore→State differs")
	}
	if r.Live() != s.Live() {
		t.Errorf("Live = %d, want %d", r.Live(), s.Live())
	}
	if a, b := s.Alloc(), r.Alloc(); a != 3 || b != 3 {
		t.Errorf("restored free list hands out %d (original %d), want 3", b, a)
	}
}

// hasPointers reports whether values of type t hold any pointer the garbage
// collector would have to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}

// TestClusterIsPointerFree guards the arena's premise for the cluster slab:
// a Cluster that gained a pointer field would make the collector scan every
// hashed page table.
func TestClusterIsPointerFree(t *testing.T) {
	if hasPointers(reflect.TypeOf(Cluster{})) {
		t.Fatal("pt.Cluster holds a pointer")
	}
	if !hasPointers(reflect.TypeOf(struct{ s []int }{})) {
		t.Fatal("hasPointers misses a slice field")
	}
}
