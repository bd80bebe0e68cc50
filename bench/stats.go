package main

import (
	"math"
	"sort"
)

// dist summarises a sample: the median is what gets reported and gated,
// the quartiles and count are kept beside it so a reader can see how far
// the median can be trusted.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// summarize computes the median and quartiles of xs with the exclusive
// method of Python's statistics.quantiles(xs, n=4), the method the
// repeatability check in the builder's contract uses, so -compare and the
// driver agree on what "spread" means.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), Min: s[0], Max: s[len(s)-1]}
	d.Q1, d.Median, d.Q3 = quantile(s, 1), quantile(s, 2), quantile(s, 3)
	return d
}

// quantile returns the i-th quartile cut point (i in 1..3) of sorted s.
func quantile(s []float64, i int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := i*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

func median(xs []float64) float64 { return summarize(xs).Median }

// percentile returns the p-quantile (0..1) of xs by nearest rank; used
// for tail latencies, where interpolation would invent values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// geomean is the geometric mean of strictly positive values; a cheap
// template weighs as much as an expensive one.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise measure the bounds are judged against.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / math.Abs(d.Median)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
