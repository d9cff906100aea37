package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. It returns 0 for no data.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailQ is the highest percentile of a grid that leaves at least ten
// samples beyond it: p99 from 1000 samples, p90 from 100, else the median.
// A fixed grid keeps the reported percentile the same from run to run.
func tailQ(n int) float64 {
	switch {
	case n >= 1000:
		return 0.99
	case n >= 100:
		return 0.90
	}
	return 0.5
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, so the spread compare mode reports is the one the
// benchmark's acceptance rule computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// usOf converts nanosecond samples to microseconds.
func usOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}
