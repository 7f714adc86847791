package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, which it sorts. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), which it sorts.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
// xs must hold at least two values; it is sorted.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	ld := len(xs)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// relIQR is the distance between the quartiles of xs as a share of its
// median.
func relIQR(xs []float64) float64 {
	med := median(append([]float64(nil), xs...))
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(append([]float64(nil), xs...))
	return (q3 - q1) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
