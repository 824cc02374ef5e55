package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (q in [0, 1]) of xs, linearly
// interpolated between the closest ranks. xs is not modified. An empty
// input yields 0: callers that need a sample check the count first.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// coveredLen returns how much of [lo, hi) the union of ivs covers.
// Overlapping intervals (a hedge racing its primary attempt) count once.
func coveredLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start < clipped[b].start })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}
