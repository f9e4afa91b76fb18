package main

import (
	"strings"
	"testing"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.99},
		{1000, 0.99},
		{999, 0.98}, // p99 would leave only 9 beyond
		{500, 0.98},
		{499, 0.95},
		{100, 0.9},
		{20, 0.5},
		{19, 0},
		{0, 0},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := tailQuantile(c.n); q > 0 {
			if beyond := c.n - rankIndex(q, c.n) - 1; beyond < minBeyond {
				t.Errorf("n=%d: p%g leaves %d samples beyond", c.n, q*100, beyond)
			}
		}
	}
}

func TestTailReportsPercentileAndCount(t *testing.T) {
	d := make(dist, 1000)
	for i := range d {
		d[i] = float64(1000 - i) // 1..1000, unsorted
	}
	v, note := d.tail("frame_p99_us")
	if v != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", v)
	}
	if !strings.Contains(note, "p99 of 1000 samples (10 beyond)") {
		t.Errorf("note %q does not name the percentile and sample count", note)
	}

	v, note = d[:200].tail("x")
	if v != 990 || !strings.Contains(note, "p95 of 200 samples (10 beyond)") {
		t.Errorf("200 samples: got %v, %q; want p95 with 10 beyond", v, note)
	}
	if _, note = d[:5].tail("x"); !strings.Contains(note, "max of 5 samples") {
		t.Errorf("5 samples: note %q, want the max named as such", note)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	d := dist{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.2: 1, 0.5: 3, 0.8: 4, 1: 5} {
		if got := d.quantile(q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if d[0] != 5 {
		t.Error("quantile sorted the caller's slice")
	}
}
