package main

import (
	"math"
	"sort"
	"time"
)

// quantiles returns the n-1 cut points that divide data into n groups,
// by the method Python's statistics.quantiles uses by default
// ("exclusive"), so spreads computed here match those computed from the
// printed results with that function.
func quantiles(data []float64, n int) []float64 {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	out := make([]float64, 0, n-1)
	ld := len(d)
	if ld < 2 {
		for i := 1; i < n; i++ {
			if ld == 1 {
				out = append(out, d[0])
			} else {
				out = append(out, math.NaN())
			}
		}
		return out
	}
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out = append(out, (d[j-1]*float64(n-delta)+d[j]*float64(delta))/float64(n))
	}
	return out
}

// median is the middle value, or the mean of the two middle values.
func median(data []float64) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	h := len(d) / 2
	if len(d)%2 == 1 {
		return d[h]
	}
	return (d[h-1] + d[h]) / 2
}

// dist summarizes a timing: its sample count, quartiles and p90.
type dist struct {
	N   int     `json:"n"`
	Q1  float64 `json:"q1"`
	P50 float64 `json:"p50"`
	Q3  float64 `json:"q3"`
	P90 float64 `json:"p90"`
}

func summarize(xs []float64) dist {
	q := quantiles(xs, 4)
	return dist{N: len(xs), Q1: q[0], P50: median(xs), Q3: q[2], P90: quantiles(xs, 10)[8]}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is zero (a layer the inputs never
// reached, such as snapshot hits on a one-attempt search).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
