package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func mkSeries(vals ...float64) *Series {
	s := NewSeries("t")
	for i, v := range vals {
		s.Add(time.Duration(i)*time.Second, v)
	}
	return s
}

func TestSeriesMaxMean(t *testing.T) {
	s := mkSeries(1, 5, 3)
	if s.Max() != 5 {
		t.Errorf("Max = %f, want 5", s.Max())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %f, want 3", s.Mean())
	}
}

func TestEmptySeriesZeroes(t *testing.T) {
	s := NewSeries("e")
	if s.Max() != 0 || s.Mean() != 0 || s.MeanNonzero() != 0 || s.FracAbove(0) != 0 {
		t.Error("empty series should return zeroes everywhere")
	}
}

func TestOutOfOrderAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	s := NewSeries("x")
	s.Add(2*time.Second, 1)
	s.Add(1*time.Second, 1)
}

func TestMeanNonzeroSkipsIdleIntervals(t *testing.T) {
	s := mkSeries(0, 10, 0, 20, 0)
	if got := s.MeanNonzero(); got != 15 {
		t.Errorf("MeanNonzero = %f, want 15", got)
	}
}

func TestFracAbove(t *testing.T) {
	s := mkSeries(85, 91, 96, 99.5, 100)
	cases := []struct {
		thr  float64
		want float64
	}{{90, 0.8}, {95, 0.6}, {99, 0.4}}
	for _, c := range cases {
		if got := s.FracAbove(c.thr); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("FracAbove(%f) = %f, want %f", c.thr, got, c.want)
		}
	}
}

func TestFracAboveIsStrict(t *testing.T) {
	s := mkSeries(90, 90, 90)
	if got := s.FracAbove(90); got != 0 {
		t.Errorf("FracAbove(90) on all-90 = %f, want 0 (strict)", got)
	}
}

func TestDownsamplePreservesMeanApprox(t *testing.T) {
	s := NewSeries("big")
	for i := 0; i < 1000; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i%10))
	}
	d := s.Downsample(50)
	if d.Len() > 50 {
		t.Fatalf("downsampled to %d points, want <= 50", d.Len())
	}
	if math.Abs(d.Mean()-s.Mean()) > 0.5 {
		t.Errorf("downsample changed mean: %f vs %f", d.Mean(), s.Mean())
	}
}

func TestDownsampleNoopWhenSmall(t *testing.T) {
	s := mkSeries(1, 2, 3)
	if d := s.Downsample(10); d != s {
		t.Error("Downsample should return receiver when already small")
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram(1, 1024, 11)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	if h.Total() != 1000 {
		t.Fatalf("Total = %d, want 1000", h.Total())
	}
	q50 := h.Quantile(0.5)
	if q50 < 500 || q50 > 1024 {
		t.Errorf("Q50 = %f, want upper bound >= 500", q50)
	}
	q0 := h.Quantile(0)
	if q0 > 4 {
		t.Errorf("Q0 = %f, want small bucket", q0)
	}
}

func TestHistogramInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewHistogram(0, 10, 4)
}

// Property: FracAbove is monotone non-increasing in the threshold and always
// within [0,1]; Percentile matches sorting for the nearest-rank definition.
func TestQuickSeriesProperties(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, math.Abs(math.Mod(v, 1000)))
			}
		}
		if len(vals) == 0 {
			return true
		}
		s := mkSeries(vals...)
		prev := 1.1
		for _, thr := range []float64{0, 10, 100, 500, 900} {
			fr := s.FracAbove(thr)
			if fr < 0 || fr > 1 || fr > prev {
				return false
			}
			prev = fr
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		return s.Max() == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
