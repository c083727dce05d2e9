package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent1 := NewRNG(7)
	parent2 := NewRNG(7)
	c1 := Split(parent1, 1)
	c2 := Split(parent2, 1)
	for i := 0; i < 50; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatal("split with same parent+tag should be deterministic")
		}
	}
	// Different tags should (overwhelmingly) give different streams.
	d1 := Split(NewRNG(7), 1)
	d2 := Split(NewRNG(7), 2)
	same := true
	for i := 0; i < 10; i++ {
		if d1.Float64() != d2.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different tags produced identical streams")
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		x := Uniform(r, 2, 5)
		if x < 2 || x >= 5 {
			t.Fatalf("uniform out of range: %v", x)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(2)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = Normal(r, 10, 3)
	}
	s := Summarize(xs)
	if math.Abs(s.Mean-10) > 0.1 {
		t.Errorf("normal mean %.3f, want ~10", s.Mean)
	}
	if math.Abs(s.Std-3) > 0.1 {
		t.Errorf("normal std %.3f, want ~3", s.Std)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(3)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = Exponential(r, 5)
	}
	m := Mean(xs)
	if math.Abs(m-5) > 0.2 {
		t.Errorf("exponential mean %.3f, want ~5", m)
	}
	if Exponential(r, 0) != 0 || Exponential(r, -1) != 0 {
		t.Error("nonpositive mean should yield 0")
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(4)
	for _, lambda := range []float64{0.5, 3, 30, 800} {
		var sum float64
		n := 5000
		for i := 0; i < n; i++ {
			sum += float64(Poisson(r, lambda))
		}
		m := sum / float64(n)
		if math.Abs(m-lambda) > 0.1*lambda+0.2 {
			t.Errorf("poisson(%v) mean %.3f", lambda, m)
		}
	}
	if Poisson(r, 0) != 0 || Poisson(r, -2) != 0 {
		t.Error("nonpositive lambda should yield 0")
	}
}

func TestBernoulli(t *testing.T) {
	r := NewRNG(5)
	hits := 0
	n := 20000
	for i := 0; i < n; i++ {
		if Bernoulli(r, 0.25) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.25) > 0.02 {
		t.Errorf("bernoulli rate %.3f, want ~0.25", p)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := NewRNG(6)
	s := SampleWithoutReplacement(r, 10, 5)
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 10 {
			t.Fatalf("out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate: %d", v)
		}
		seen[v] = true
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k > n")
		}
	}()
	SampleWithoutReplacement(r, 3, 4)
}

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("unexpected summary: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("std %.6f", s.Std)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Error("empty summary should be zero")
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v)=%v want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	if Quantile([]float64{7}, 0.9) != 7 {
		t.Error("single-element quantile")
	}
}

func TestMeanGeoMean(t *testing.T) {
	if Mean([]float64{2, 4}) != 3 {
		t.Error("mean")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("mean of empty should be NaN")
	}
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean %v", g)
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Error("geomean with nonpositive should be NaN")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if c.At(0) != 0 {
		t.Error("At below min")
	}
	if c.At(2) != 0.5 {
		t.Errorf("At(2)=%v", c.At(2))
	}
	if c.At(10) != 1 {
		t.Error("At above max")
	}
	pts := c.Points(4)
	if len(pts) != 4 || pts[3][1] != 1 {
		t.Errorf("points: %v", pts)
	}
	if c.Len() != 4 {
		t.Error("len")
	}
	if NewCDF(nil).Points(3) != nil {
		t.Error("empty points should be nil")
	}
}

func TestCDFMonotonic(t *testing.T) {
	r := NewRNG(8)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	c := NewCDF(xs)
	prev := -1.0
	for x := -4.0; x <= 4.0; x += 0.1 {
		p := c.At(x)
		if p < prev {
			t.Fatalf("CDF not monotone at %v", x)
		}
		prev = p
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 10 {
		t.Errorf("histogram lost mass: %v", h.Counts)
	}
	// Degenerate: all equal values.
	h2 := NewHistogram([]float64{3, 3, 3}, 4)
	if h2.Counts[0] != 3 {
		t.Errorf("degenerate histogram: %v", h2.Counts)
	}
}

func TestRelImprovement(t *testing.T) {
	if RelImprovement(10, 7) != 0.3 {
		t.Error("rel improvement")
	}
	if !math.IsNaN(RelImprovement(0, 1)) {
		t.Error("zero base should be NaN")
	}
}

func TestQuantilePropertyBounds(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q = math.Abs(math.Mod(q, 1))
		s := Summarize(xs)
		cdf := NewCDF(xs)
		v := cdf.Quantile(q)
		return v >= s.Min-1e-9 && v <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2})
	if s.String() == "" {
		t.Error("empty string")
	}
}

func TestLogNormal(t *testing.T) {
	r := NewRNG(9)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = LogNormal(r, 0, 0.5)
	}
	for _, x := range xs {
		if x <= 0 {
			t.Fatal("lognormal must be positive")
		}
	}
	// Median of lognormal(0, σ) is e^0 = 1.
	med := NewCDF(xs).Quantile(0.5)
	if math.Abs(med-1) > 0.05 {
		t.Errorf("lognormal median %.3f", med)
	}
}

func TestPerm(t *testing.T) {
	r := NewRNG(10)
	p := Perm(r, 6)
	seen := map[int]bool{}
	for _, v := range p {
		if v < 0 || v >= 6 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100} // outlier
	plain := Mean(xs)
	trimmed := TrimmedMean(xs, 0.2) // drops 1 and 100
	if trimmed != 3 {
		t.Errorf("trimmed mean %v want 3", trimmed)
	}
	if trimmed >= plain {
		t.Error("trimming should reduce the outlier's pull")
	}
	if !math.IsNaN(TrimmedMean(nil, 0.1)) {
		t.Error("empty should be NaN")
	}
	// Clamps: negative trim behaves like mean; >=0.5 keeps at least the middle.
	if TrimmedMean(xs, -1) != plain {
		t.Error("negative trim should behave like mean")
	}
	if v := TrimmedMean(xs, 0.9); math.IsNaN(v) {
		t.Error("over-trim should still return a value")
	}
}

// The samplers and summaries below have no caller outside these tests:
// no simulator or figure draws from them, so they stay out of the package.

// Normal samples from a Gaussian with the given mean and standard deviation.
func Normal(r *rand.Rand, mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// LogNormal samples from a log-normal distribution whose underlying normal
// has parameters mu and sigma.
func LogNormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(Normal(r, mu, sigma))
}

// Poisson samples a Poisson-distributed count with expectation lambda using
// Knuth's method for small lambda and a normal approximation for large
// lambda (where the exact method would need thousands of uniforms).
func Poisson(r *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		// Normal approximation with continuity correction.
		n := int(math.Round(Normal(r, lambda, math.Sqrt(lambda))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
	P5     float64
	P95    float64
}

// Summarize computes descriptive statistics for xs. It returns the zero
// Summary for an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(sq / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P5 = Quantile(sorted, 0.05)
	s.P95 = Quantile(sorted, 0.95)
	return s
}

// GeoMean returns the geometric mean of strictly positive xs.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// At returns P(X <= x) under the empirical distribution.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Points returns up to k (x, P(X<=x)) pairs evenly spaced through the
// sample, convenient for rendering a CDF curve (paper Figs 7b, 11b, 13b).
func (c *CDF) Points(k int) [][2]float64 {
	n := len(c.sorted)
	if n == 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	out := make([][2]float64, 0, k)
	for i := 0; i < k; i++ {
		idx := n - 1
		if k > 1 {
			idx = i * (n - 1) / (k - 1)
		}
		out = append(out, [2]float64{c.sorted[idx], float64(idx+1) / float64(n)})
	}
	return out
}

// Histogram bins a sample into nbins equal-width bins over [min,max].
type Histogram struct {
	Min, Max float64
	Counts   []int
}

// NewHistogram bins xs into nbins equal-width bins spanning the sample
// range. A non-positive nbins yields an empty histogram. Non-finite samples
// (NaN, ±Inf) carry no binnable magnitude and are ignored; if no finite
// sample remains the histogram is empty.
func NewHistogram(xs []float64, nbins int) Histogram {
	if nbins < 0 {
		nbins = 0
	}
	h := Histogram{Counts: make([]int, nbins)}
	if nbins == 0 {
		return h
	}
	finite := 0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if finite == 0 {
			h.Min, h.Max = x, x
		} else {
			if x < h.Min {
				h.Min = x
			}
			if x > h.Max {
				h.Max = x
			}
		}
		finite++
	}
	if finite == 0 {
		return h
	}
	width := (h.Max - h.Min) / float64(nbins)
	if width == 0 {
		h.Counts[0] = finite
		return h
	}
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		i := int((x - h.Min) / width)
		if i >= nbins {
			i = nbins - 1
		}
		if i < 0 {
			i = 0
		}
		h.Counts[i]++
	}
	return h
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g p50=%.4g p95=%.4g max=%.4g",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.P95, s.Max)
}
