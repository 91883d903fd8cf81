// Package stats provides the small statistical helpers shared by the
// experiment drivers: histograms, geometric means, and running counters.
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// GeoMean returns the geometric mean of xs. It returns 0 for an empty slice
// and NaN if any value is negative.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x < 0 {
			return math.NaN()
		}
		if x == 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Histogram counts integer-valued observations (e.g. the number of cuckoo
// re-insertions per insert, Figure 16). It keeps one (value, count) bin per
// distinct value, sorted by value: the handful of distinct values a
// histogram sees makes Add a short search with no hashing. The zero value
// is ready to use.
type Histogram struct {
	bins  []bin // ascending by v
	total uint64
	sum   float64
}

type bin struct {
	v int
	n uint64
}

// find returns the index of v's bin, or where it would be inserted. It
// scans from the low end, where cuckoo kick counts crowd: most inserts kick
// nothing.
func (h *Histogram) find(v int) (int, bool) {
	i := 0
	for i < len(h.bins) && h.bins[i].v < v {
		i++
	}
	return i, i < len(h.bins) && h.bins[i].v == v
}

// Add records one observation of value v.
func (h *Histogram) Add(v int) {
	i, ok := h.find(v)
	if !ok {
		h.bins = slices.Insert(h.bins, i, bin{v: v})
	}
	h.bins[i].n++
	h.total++
	h.sum += float64(v)
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns the number of observations with value v.
func (h *Histogram) Count(v int) uint64 {
	if i, ok := h.find(v); ok {
		return h.bins[i].n
	}
	return 0
}

// Probability returns the empirical probability of value v.
func (h *Histogram) Probability(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// Mean returns the mean observed value.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest observed value, or 0 if empty or if every value
// is negative.
func (h *Histogram) Max() int {
	if n := len(h.bins); n > 0 && h.bins[n-1].v > 0 {
		return h.bins[n-1].v
	}
	return 0
}

// Values returns the observed values in ascending order.
func (h *Histogram) Values() []int {
	vs := make([]int, len(h.bins))
	for i, b := range h.bins {
		vs[i] = b.v
	}
	return vs
}

// Merge adds all observations from other into h. Values are folded in
// ascending order: float addition is not associative, so accumulating sum
// in any other order would make the merged statistics depend on how the
// histograms were stored.
func (h *Histogram) Merge(other *Histogram) {
	if len(other.bins) == 0 {
		return
	}
	merged := make([]bin, 0, len(h.bins)+len(other.bins))
	i := 0
	for _, o := range other.bins {
		for i < len(h.bins) && h.bins[i].v < o.v {
			merged = append(merged, h.bins[i])
			i++
		}
		if i < len(h.bins) && h.bins[i].v == o.v {
			merged = append(merged, bin{v: o.v, n: h.bins[i].n + o.n})
			i++
		} else {
			merged = append(merged, o)
		}
		h.total += o.n
		h.sum += float64(o.v) * float64(o.n)
	}
	h.bins = append(merged, h.bins[i:]...)
}

// String renders the histogram as "v:p v:p ..." with probabilities.
func (h *Histogram) String() string {
	var b strings.Builder
	for i, v := range h.Values() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%.3f", v, h.Probability(v))
	}
	return b.String()
}

// Shootdowns aggregates TLB-shootdown and IPI activity for the multi-tenant
// simulation. The struct is split along the canonical/core-view boundary
// DESIGN.md's multi-tenant determinism contract draws:
//
//   - Events and SharersNotified are canonical, address-space-granular
//     accounting (a remap of a shared page is one event notifying every
//     other live sharer process), independent of how processes are packed
//     onto cores. They are part of the run fingerprint.
//   - IPIsDelivered and IPICycles are core-view: an IPI goes to each *core*
//     with a resident address space, so packing more processes per core
//     delivers fewer, costlier-per-tenant interrupts. They are reported but
//     excluded from the fingerprint, since they legitimately vary with the
//     simulated core count.
type Shootdowns struct {
	Events          uint64 `json:"events"`
	SharersNotified uint64 `json:"sharers_notified"`
	IPIsDelivered   uint64 `json:"ipis_delivered"`
	IPICycles       uint64 `json:"ipi_cycles"`
}

// Ftoa formats a fraction with three decimals (figure rendering helper).
func Ftoa(f float64) string { return fmt.Sprintf("%.3f", f) }

// HumanBytes formats a byte count with a binary-unit suffix, the way the
// paper's tables report sizes ("8KB", "1MB", "64MB").
func HumanBytes(n uint64) string {
	units := []struct {
		shift uint
		name  string
	}{{40, "TB"}, {30, "GB"}, {20, "MB"}, {10, "KB"}}
	for _, u := range units {
		unit := uint64(1) << u.shift
		if n < unit {
			continue
		}
		if n%unit == 0 {
			return fmt.Sprintf("%d%s", n>>u.shift, u.name)
		}
		return fmt.Sprintf("%.1f%s", float64(n)/float64(unit), u.name)
	}
	return fmt.Sprintf("%dB", n)
}
