package pt

// SlabState is the serializable form of a Slab. The free list is preserved
// verbatim — its stack order determines which ids future Allocs hand out,
// so bit-identical resumption requires the exact list, not just its
// membership.
type SlabState struct {
	Clusters []Cluster
	Free     []uint64
}

// State returns a deep copy of the slab's contents.
func (s *Slab) State() SlabState {
	st := SlabState{
		Clusters: s.Arena.elems(),
		Free:     make([]uint64, len(s.free)),
	}
	copy(st.Free, s.free)
	return st
}

// Restore replaces the slab's contents with the recorded state.
func (s *Slab) Restore(st SlabState) { s.Arena.reset(st.Clusters, st.Free) }
