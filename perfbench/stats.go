package main

import (
	"math"
	"slices"
)

// tailLevels are the percentiles a tail may be reported at, highest last.
var tailLevels = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which
// must be sorted ascending; it is 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// beyond is the number of samples of an n-sample that lie strictly beyond
// its nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailLevel is the percentile rule: the highest of tailLevels that leaves at
// least ten samples beyond it, or 0 when even the median does not.
func tailLevel(n int) float64 {
	level := 0.0
	for _, q := range tailLevels {
		if beyond(n, q) >= 10 {
			level = q
		}
	}
	return level
}

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's spread is judged by. xs need not be sorted; with fewer
// than two samples all three equal the single value (or 0).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		// Clamp j into [1, n-1] before taking delta, as Python does.
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// imbalance is max/mean over xs: 1 for a perfectly even split, 0 when
// nothing ran.
func imbalance(xs []float64) float64 {
	m := mean(xs)
	if m == 0 {
		return 0
	}
	return slices.Max(xs) / m
}

// reversals counts the direction changes of a series, ignoring flat steps.
func reversals(xs []float64) int {
	n, dir := 0, 0
	for i := 1; i < len(xs); i++ {
		d := 0
		switch {
		case xs[i] > xs[i-1]:
			d = 1
		case xs[i] < xs[i-1]:
			d = -1
		}
		if d != 0 {
			if dir != 0 && d != dir {
				n++
			}
			dir = d
		}
	}
	return n
}

// passPercentiles returns the median over passes of each pass's p50 and
// p99 latency: the latency of a typical pass, so one stalled second of a
// run does not set the run's figure.
func passPercentiles(passes [][]float64) (p50, p99 float64) {
	var a, b []float64
	for _, p := range passes {
		if len(p) == 0 {
			continue
		}
		s := slices.Clone(p)
		slices.Sort(s)
		a = append(a, percentile(s, 0.5))
		b = append(b, percentile(s, 0.99))
	}
	return median(a), median(b)
}

// dist summarizes a sample: its median, its tail at the percentile rule's
// level and the sample count, as printed in the human-readable table.
type dist struct {
	n      int
	p50    float64
	tailQ  float64
	tail   float64
	sorted []float64
}

func newDist(xs []float64) dist {
	s := slices.Clone(xs)
	slices.Sort(s)
	q := tailLevel(len(s))
	return dist{n: len(s), p50: percentile(s, 0.5), tailQ: q, tail: percentile(s, q), sorted: s}
}

func (d dist) at(q float64) float64 { return percentile(d.sorted, q) }
