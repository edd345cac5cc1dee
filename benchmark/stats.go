package main

import (
	"math"
	"sort"
)

// The harness's own arithmetic, kept free of the system under test so
// the unit tests can pin it down.

// tailRanks are the tail percentiles the harness may report, lowest
// first, each with the share of a pool that lies beyond it (one in N).
var tailRanks = []struct {
	rank  float64
	oneIn int
}{{90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// tailRank returns the highest of tailRanks that still has at least ten
// samples beyond it in a pool of n samples — a percentile with fewer
// than ten samples above it is one outlier away from a different value.
// Pools too small even for p90 get 0 (report the median only).
func tailRank(n int) float64 {
	best := 0.0
	for _, t := range tailRanks {
		if n >= 10*t.oneIn {
			best = t.rank
		}
	}
	return best
}

// percentile returns the p-th percentile (nearest rank) of sorted
// samples; 0 for an empty pool.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns the samples ascending without disturbing xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (mean of the middle two for an even
// count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// minMax returns the extremes of xs (0, 0 for none): the spread printed
// beside a median of segments.
func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) (the exclusive method) gives them —
// the rule the acceptance driver applies to the ten runs of a metric.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadShare is the distance between the quartiles as a share of the
// median — the figure compared against a metric's bound. Fewer than two
// values, or a zero median, have no spread.
func spreadShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(med)
}

// opCount tallies attempted and failed operations. A failed, refused,
// timed-out or output-mismatched operation counts against the attempts
// and contributes no latency sample.
type opCount struct {
	attempted int
	failed    int
}

func (c *opCount) add(o opCount) {
	c.attempted += o.attempted
	c.failed += o.failed
}

func (c opCount) failedShare() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// samples collects the latencies of one operation class together with
// its attempt and failure counts.
type samples struct {
	opCount
	us []float64 // latencies of the successful operations, microseconds
}

// ok records a successful operation and its latency.
func (s *samples) ok(us float64) {
	s.attempted++
	s.us = append(s.us, us)
}

// fail records an operation that failed, was refused, timed out or
// returned a wrong output: it is attempted, failed, and has no latency.
func (s *samples) fail() {
	s.attempted++
	s.failed++
}

func (s *samples) merge(o *samples) {
	s.add(o.opCount)
	s.us = append(s.us, o.us...)
}

// segment is one slice of a timed interval. Rates and latency
// percentiles are taken per segment and the run reports their medians
// over the segments: a burst of interference from the host then spoils
// the segments it hits, not the run's figure.
type segment struct {
	ops  int       // operations completed in the segment
	busy float64   // seconds of driving time the segment covers
	us   []float64 // latencies of its primary operations, microseconds
}

// rate is the segment's operations per second of driving time.
func (s *segment) rate() float64 {
	if s.busy <= 0 {
		return 0
	}
	return float64(s.ops) / s.busy
}

// minSegmentSamples is the fewest latency samples from which a segment's
// percentiles are taken; p90 of fewer than ten samples is its maximum.
const minSegmentSamples = 10

// overSegments returns fn of every segment that has work in it.
func overSegments(segs []segment, fn func(*segment) (float64, bool)) []float64 {
	var out []float64
	for i := range segs {
		if v, ok := fn(&segs[i]); ok {
			out = append(out, v)
		}
	}
	return out
}

func segmentRates(segs []segment) []float64 {
	return overSegments(segs, func(s *segment) (float64, bool) { return s.rate(), s.ops > 0 })
}

// segmentPercentiles returns the p-th latency percentile of every
// segment with enough samples.
func segmentPercentiles(segs []segment, p float64) []float64 {
	return overSegments(segs, func(s *segment) (float64, bool) {
		return percentile(sortedCopy(s.us), p), len(s.us) >= minSegmentSamples
	})
}
