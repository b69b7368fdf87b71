// Package metrics holds the measurement primitives the simulator and the
// experiment harness share: Series (a sampled time series with pointwise
// merging across replicas), Running (Welford mean/variance with 95%
// confidence intervals for cross-replica aggregates), and CSV rendering
// over a shared time axis. The world samples its population and
// reputation series into these types; the experiments package aggregates
// replicas with them and emits the paper-comparable tables and plots.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one sample of a time series.
type Point struct {
	T Tick
	V float64
}

// Tick mirrors sim.Tick without importing it (metrics sits below sim in the
// dependency order).
type Tick = int64

// Series is an append-only time series of float64 samples.
type Series struct {
	Name   string
	Points []Point
}

// Append records a sample. Samples must be appended in non-decreasing time
// order; out-of-order appends panic because they indicate a harness bug.
func (s *Series) Append(t Tick, v float64) {
	if n := len(s.Points); n > 0 && s.Points[n-1].T > t {
		panic(fmt.Sprintf("metrics: out-of-order append to %q: %d after %d", s.Name, t, s.Points[n-1].T))
	}
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Last returns the final sample, or zero and false if the series is empty.
func (s *Series) Last() (Point, bool) {
	if len(s.Points) == 0 {
		return Point{}, false
	}
	return s.Points[len(s.Points)-1], true
}

// At returns the value of the latest sample with time <= t, or zero and
// false if no such sample exists.
func (s *Series) At(t Tick) (float64, bool) {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if i == 0 {
		return 0, false
	}
	return s.Points[i-1].V, true
}

// Values returns just the sample values, in time order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// Running computes online mean and variance (Welford's algorithm) without
// retaining samples.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe folds one sample into the accumulator.
func (r *Running) Observe(v float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = v, v
	} else {
		if v < r.min {
			r.min = v
		}
		if v > r.max {
			r.max = v
		}
	}
	d := v - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (v - r.mean)
}

// Mean returns the sample mean (0 with no samples).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (0 with <2 samples).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observed sample (0 with no samples).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observed sample (0 with no samples).
func (r *Running) Max() float64 { return r.max }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval for the mean (0 with <2 samples).
func (r *Running) CI95() float64 {
	if r.n < 2 {
		return 0
	}
	return 1.96 * r.StdDev() / math.Sqrt(float64(r.n))
}

// MergeSeriesChecked averages several same-shaped series pointwise: the
// reduction used for the paper's "each experiment is repeated 10 times
// and the results averaged". All series must have identical sample
// times. A mismatch is an error, not a panic, because the fleet merges
// results from outside the process: the error names the merged series,
// the replica index and the series name of the mismatching input.
func MergeSeriesChecked(name string, runs []*Series) (*Series, error) {
	if len(runs) == 0 {
		return &Series{Name: name}, nil
	}
	n := len(runs[0].Points)
	for j, r := range runs[1:] {
		if len(r.Points) != n {
			return nil, fmt.Errorf("merging %q: run %d (series %q) has %d points, run 0 (series %q) has %d",
				name, j+1, r.Name, len(r.Points), runs[0].Name, n)
		}
	}
	out := &Series{Name: name, Points: make([]Point, n)}
	for i := 0; i < n; i++ {
		t := runs[0].Points[i].T
		sum := 0.0
		for j, r := range runs {
			if r.Points[i].T != t {
				return nil, fmt.Errorf("merging %q: run %d (series %q) sampled t=%d at index %d, run 0 (series %q) sampled t=%d",
					name, j, r.Name, r.Points[i].T, i, runs[0].Name, t)
			}
			sum += r.Points[i].V
		}
		out.Points[i] = Point{T: t, V: sum / float64(len(runs))}
	}
	return out, nil
}

// CSV renders one or more series sharing a time axis as CSV with a header
// row; series must be same-shaped (same times), as produced by the harness.
func CSV(series ...*Series) string {
	var b strings.Builder
	b.WriteString("t")
	for _, s := range series {
		b.WriteString(",")
		b.WriteString(s.Name)
	}
	b.WriteString("\n")
	if len(series) == 0 || len(series[0].Points) == 0 {
		return b.String()
	}
	n := len(series[0].Points)
	for _, s := range series[1:] {
		if len(s.Points) != n {
			panic(fmt.Sprintf("metrics: CSV of different-length series: %q has %d points, %q has %d",
				s.Name, len(s.Points), series[0].Name, n))
		}
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d", series[0].Points[i].T)
		for _, s := range series {
			fmt.Fprintf(&b, ",%g", s.Points[i].V)
		}
		b.WriteString("\n")
	}
	return b.String()
}
