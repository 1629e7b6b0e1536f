package main

import "sort"

// summary is the distribution of one metric over the rounds of a run.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize returns the median and quartiles of xs. The quartiles use the
// same rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so a spread computed here reads like the one a
// Python harness computes from the same values.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := quartiles(s)
	return summary{Median: median(s), Q1: q[0], Q3: q[2], N: len(s)}
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles ports statistics.quantiles(data, n=4, method="exclusive") for
// sorted data; a single value is every quartile.
func quartiles(sorted []float64) [3]float64 {
	ld := len(sorted)
	var out [3]float64
	if ld == 1 {
		return [3]float64{sorted[0], sorted[0], sorted[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (sorted[j-1]*(n-delta) + sorted[j]*delta) / n
	}
	return out
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// unresolved reports whether the run-to-run spread is wider than the
// metric's regression bound: a change of that size could not be told apart
// from noise, so the metric must be reported as unresolved, not unchanged.
func (s summary) unresolved(bound float64) bool {
	return s.N > 1 && s.spread() > bound
}
