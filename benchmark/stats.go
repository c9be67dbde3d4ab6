package main

import (
	"math"
	"sort"
)

// tailPercentile returns the highest percentile, capped at p99, that still
// has at least ten of n samples beyond it; below twenty samples that is the
// median. A window with a thousand samples of a class therefore reports a
// true p99, a thinner one the highest tail it can support.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// percentile reads the p-quantile of an ascending sample by linear
// interpolation between the two nearest ranks.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*float64(sorted[lo+1]-sorted[lo])
}

// midmean is the mean of the middle half of an ascending sample. It tracks
// the median, but moves smoothly where the median jumps: cold latencies are
// whole numbers of device seeks, and a class mixes query kinds of different
// cost, so a median sitting between two clusters flips with the seed.
func midmean(sorted []int64) float64 {
	lo, hi := len(sorted)/4, len(sorted)-len(sorted)/4
	if hi <= lo {
		return 0
	}
	var sum float64
	for _, v := range sorted[lo:hi] {
		sum += float64(v)
	}
	return sum / float64(hi-lo)
}

// classStat is one query class's latency summary inside one window.
type classStat struct {
	N       int     `json:"n"`
	MidUs   float64 `json:"mid_us"`
	P50us   float64 `json:"p50_us"`
	TailUs  float64 `json:"tail_us"`
	TailPct float64 `json:"tail_pct"`
}

// summarize sorts ns in place and returns its midmean, median and supported
// tail in microseconds.
func summarize(ns []int64) classStat {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	p := tailPercentile(len(ns))
	return classStat{
		N:       len(ns),
		MidUs:   midmean(ns) / 1e3,
		P50us:   percentile(ns, 0.5) / 1e3,
		TailUs:  percentile(ns, p) / 1e3,
		TailPct: p * 100,
	}
}

// spread is the median of per-window values with the extremes and the
// quartiles beside it.
type spread struct {
	Median, Min, Max, Q1, Q3 float64
}

// spreadOf summarizes vals. The quartiles follow Python's
// statistics.quantiles(vals, n=4), the rule the acceptance check uses.
func spreadOf(vals []float64) spread {
	if len(vals) == 0 {
		return spread{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	quantile := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		lo := int(math.Floor(pos))
		switch {
		case lo < 0:
			return s[0]
		case lo >= len(s)-1:
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return spread{Median: quantile(0.5), Min: s[0], Max: s[len(s)-1], Q1: quantile(0.25), Q3: quantile(0.75)}
}

// usMedian is the median of ns in microseconds.
func usMedian(ns []int64) float64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, 0.5) / 1e3
}
