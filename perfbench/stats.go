package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLadder lists the tail percentiles a workload may pin, highest
// last.
var tailLadder = []float64{50, 75, 90, 95, 98, 99, 99.5, 99.9}

// beyond returns how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(p float64, n int) int {
	return n - rank(p, n)
}

// rank is the 1-based nearest rank of the p-th percentile of n
// samples. The epsilon keeps float error in p·n/100 (99.9 × 10000 is
// not exactly 999000) from pushing an exact rank up by one.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond samples above it at n samples, or 0 when even the median
// has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if beyond(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place), or 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// median is the middle value of xs (mean of the middle two for even
// counts), or 0 for no samples. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// perUnit divides a total by a work count, 0 when there is no work.
func perUnit(total float64, units int64) float64 {
	if units == 0 {
		return 0
	}
	return total / float64(units)
}

// interval is a half-open span of time in microseconds.
type interval struct{ start, end int64 }

// selfTime returns how much of parent no child covers. Children may
// overlap each other (pool workers run shards side by side) and may
// stick out of the parent (a job runs after its submit span ended);
// only the union of their parts inside parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, c := range clipped {
		if c.start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.start, c.end
			continue
		}
		curE = max(curE, c.end)
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.end - parent.start - covered
}
