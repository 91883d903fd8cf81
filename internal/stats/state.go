package stats

import (
	"cmp"
	"slices"
)

// HistogramState is the serializable form of a Histogram, used by the
// checkpoint/restore layer (internal/snapshot callers) to carry histogram
// contents across a crash.
type HistogramState struct {
	Counts map[int]uint64
	Total  uint64
	Sum    float64
}

// State returns a deep copy of the histogram's contents.
func (h *Histogram) State() HistogramState {
	st := HistogramState{Total: h.total, Sum: h.sum}
	if len(h.bins) > 0 {
		st.Counts = make(map[int]uint64, len(h.bins))
		for _, b := range h.bins {
			st.Counts[b.v] = b.n
		}
	}
	return st
}

// Restore replaces the histogram's contents with the recorded state.
func (h *Histogram) Restore(st HistogramState) {
	h.bins = nil
	if len(st.Counts) > 0 {
		bins := make([]bin, 0, len(st.Counts))
		for v, c := range st.Counts {
			bins = append(bins, bin{v: v, n: c})
		}
		slices.SortFunc(bins, func(a, b bin) int { return cmp.Compare(a.v, b.v) })
		h.bins = bins
	}
	h.total = st.Total
	h.sum = st.Sum
}
