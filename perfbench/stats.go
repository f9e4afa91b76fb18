package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be reported at all.
const minBeyond = 10

// tailLadder is the percentiles the tail rule picks from, highest
// first.
var tailLadder = []float64{0.99, 0.98, 0.95, 0.9, 0.8, 0.5}

// tailQuantile returns the highest percentile in tailLadder that has
// at least minBeyond samples beyond it among n samples, or 0 when not
// even the median qualifies.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if n-rankIndex(q, n)-1 >= minBeyond {
			return q
		}
	}
	return 0
}

// rankIndex is the nearest-rank index of quantile q in n sorted
// samples.
func rankIndex(q float64, n int) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// dist is a sample of durations or sizes.
type dist []float64

// sorted returns the sample in ascending order (a copy).
func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Float64s(s)
	return s
}

// quantile returns the nearest-rank quantile q of the sample, 0 when
// it is empty.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := d.sorted()
	return s[rankIndex(q, len(s))]
}

func (d dist) median() float64 { return d.quantile(0.5) }

func (d dist) sum() float64 {
	var s float64
	for _, v := range d {
		s += v
	}
	return s
}

// tail returns the tail rule's percentile value and a note naming the
// percentile used and the sample count behind it.
func (d dist) tail(name string) (float64, string) {
	n := len(d)
	q := tailQuantile(n)
	if q == 0 {
		return d.quantile(1), fmt.Sprintf("%s: max of %d samples (too few for a percentile)", name, n)
	}
	s := d.sorted()
	i := rankIndex(q, n)
	return s[i], fmt.Sprintf("%s: p%g of %d samples (%d beyond)", name, q*100, n, n-i-1)
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
