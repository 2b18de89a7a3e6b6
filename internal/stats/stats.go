// Package stats provides the small statistical toolkit the characterization
// framework needs: time series of sampled metrics, streaming summaries, and
// fixed-bucket histograms. Everything is deterministic and allocation-light.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Point is one sample of a metric at a virtual timestamp.
type Point struct {
	T time.Duration
	V float64
}

// Series is an append-only time series of metric samples.
type Series struct {
	Name   string
	Points []Point
}

// NewSeries creates an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample. Timestamps are expected to be non-decreasing;
// out-of-order appends panic since they indicate a simulation bug.
func (s *Series) Add(t time.Duration, v float64) {
	if n := len(s.Points); n > 0 && t < s.Points[n-1].T {
		panic(fmt.Sprintf("stats: out-of-order sample on %s: %v after %v", s.Name, t, s.Points[n-1].T))
	}
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Max returns the largest sample value, or 0 for an empty series.
func (s *Series) Max() float64 {
	max := 0.0
	for i, p := range s.Points {
		if i == 0 || p.V > max {
			max = p.V
		}
	}
	return max
}

// Mean returns the arithmetic mean of samples, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// MeanNonzero returns the mean over samples with V > 0 — useful for
// averaging per-interval latencies that are undefined in idle intervals.
func (s *Series) MeanNonzero() float64 {
	sum, n := 0.0, 0
	for _, p := range s.Points {
		if p.V > 0 {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FracAbove returns the fraction of samples strictly greater than threshold.
// This is exactly the paper's Tables 6 and 7 (">90%util", ">95%util",
// ">99%util" ratios over the sampled execution).
func (s *Series) FracAbove(threshold float64) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	n := 0
	for _, p := range s.Points {
		if p.V > threshold {
			n++
		}
	}
	return float64(n) / float64(len(s.Points))
}

// Downsample reduces the series to at most n points by averaging equal-width
// windows, preserving overall shape for compact plotting. It returns the
// receiver unchanged if it already fits.
func (s *Series) Downsample(n int) *Series {
	if n <= 0 || len(s.Points) <= n {
		return s
	}
	out := NewSeries(s.Name)
	per := float64(len(s.Points)) / float64(n)
	for i := 0; i < n; i++ {
		lo, hi := int(float64(i)*per), int(float64(i+1)*per)
		if hi > len(s.Points) {
			hi = len(s.Points)
		}
		if lo >= hi {
			continue
		}
		sum := 0.0
		for _, p := range s.Points[lo:hi] {
			sum += p.V
		}
		out.Add(s.Points[hi-1].T, sum/float64(hi-lo))
	}
	return out
}

// Histogram is a fixed-bucket histogram over [0, +inf) with geometric bucket
// boundaries, suitable for request sizes and latencies. All state is in the
// exported fields, so a Histogram survives a JSON round trip intact (run
// reports carrying histograms are persisted by internal/runcache).
type Histogram struct {
	Bounds []float64 // ascending upper bounds; final bucket is overflow
	Counts []uint64
}

// NewHistogram builds a histogram with nbuckets geometric buckets spanning
// [min, max]. nbuckets must be >= 2 and 0 < min < max.
func NewHistogram(min, max float64, nbuckets int) *Histogram {
	if nbuckets < 2 || min <= 0 || max <= min {
		panic("stats: invalid histogram shape")
	}
	h := &Histogram{
		Bounds: make([]float64, nbuckets),
		Counts: make([]uint64, nbuckets+1),
	}
	ratio := math.Pow(max/min, 1/float64(nbuckets-1))
	b := min
	for i := range h.Bounds {
		h.Bounds[i] = b
		b *= ratio
	}
	return h
}

// Observe adds one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.Bounds, v)
	h.Counts[i]++
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Quantile returns an upper-bound estimate of the q-th quantile (0..1).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Bounds[len(h.Bounds)-1]
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}
