package main

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"sort"
)

// spec is the part of BENCHMARK.json the runner reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// record is one saved benchmark run: the host line and the final JSON
// line of its output, or the error it exited with.
type record struct {
	Pair     int         `json:"pair"`
	Side     string      `json:"side"` // "base" or "change"
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Host     string      `json:"host,omitempty"`
	Result   *perfResult `json:"result,omitempty"`
	Error    string      `json:"error,omitempty"`
}

// perfResult is the benchmark's last output line.
type perfResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

var sides = [2]string{"base", "change"}

var commitField = regexp.MustCompile(`\bcommit=\S+`)

// compare prints, per workload and end-to-end metric, each side's
// median, quartiles and pair wins, and a verdict: ok, unresolved or
// FAIL. It returns false when a run failed, when the change fails a
// larger share of operations on a workload, or when a metric's median
// is worse than its bound and every change run is worse than every
// base run. A metric past its bound whose runs overlap, or whose runs
// spread wider than the bound, is unresolved, which does not fail.
// It refuses (returns an error) when the runs do not share one host
// line apart from commit=, or when a pair lacks a side or a metric.
func compare(w io.Writer, sp spec, recs []record) (bool, error) {
	ok := true
	host := ""
	runs := map[string]map[int]*[2]*perfResult{} // workload → pair → sides
	var workloads []string
	for _, r := range recs {
		si := slices.Index(sides[:], r.Side)
		if si < 0 {
			return false, fmt.Errorf("pair %d %s: unknown side %q", r.Pair, r.Workload, r.Side)
		}
		if r.Error != "" || r.Result == nil || !r.Result.Correct {
			fmt.Fprintf(w, "FAIL: pair %d %s %s (seed %d) did not complete: %s\n",
				r.Pair, r.Side, r.Workload, r.Seed, r.Error)
			ok = false
			continue
		}
		if h := commitField.ReplaceAllString(r.Host, "commit="); host == "" {
			host = h
			fmt.Fprintf(w, "host %s\n", h)
		} else if h != host {
			return false, fmt.Errorf("refusing to compare across hosts:\n  %s\n  %s", host, h)
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[int]*[2]*perfResult{}
			workloads = append(workloads, r.Workload)
		}
		if runs[r.Workload][r.Pair] == nil {
			runs[r.Workload][r.Pair] = &[2]*perfResult{}
		}
		runs[r.Workload][r.Pair][si] = r.Result
	}
	if !ok {
		return false, nil
	}
	if len(workloads) == 0 {
		return false, fmt.Errorf("no results")
	}

	for _, wl := range workloads {
		pairs := make([]int, 0, len(runs[wl]))
		for p := range runs[wl] {
			pairs = append(pairs, p)
		}
		sort.Ints(pairs)
		var attempted, failed [2]int
		for _, p := range pairs {
			for si, r := range runs[wl][p] {
				if r == nil {
					return false, fmt.Errorf("%s pair %d: no %s run", wl, p, sides[si])
				}
				attempted[si] += r.Attempted
				failed[si] += r.Failed
			}
		}
		fmt.Fprintf(w, "\nworkload %s, %d pairs\nfailed operations: base %d/%d, change %d/%d\n",
			wl, len(pairs), failed[0], attempted[0], failed[1], attempted[1])
		if float64(failed[1])*float64(attempted[0]) > float64(failed[0])*float64(attempted[1]) {
			fmt.Fprintf(w, "FAIL: the change fails a larger share of operations\n")
			ok = false
		}
		fmt.Fprintf(w, "%-14s %-9s %-30s %-30s %8s %6s %6s  %s\n",
			"metric", "unit", "base median [q1, q3]", "change median [q1, q3]", "Δ median", "wins", "bound", "verdict")
		for _, m := range sp.EndToEnd {
			var vals [2][]float64
			wins := 0
			for _, p := range pairs {
				for si, r := range runs[wl][p] {
					v, found := r.Metrics[m.Name]
					if !found {
						return false, fmt.Errorf("%s pair %d: no %s in the %s run", wl, p, m.Name, sides[si])
					}
					vals[si] = append(vals[si], v.Value)
				}
				if n := len(vals[0]) - 1; better(m.Better, vals[1][n], vals[0][n]) {
					wins++
				}
			}
			var med, q1, q3 [2]float64
			for si := range sides {
				sort.Float64s(vals[si])
				med[si], q1[si], q3[si] = quantile(vals[si], 0.5), quantile(vals[si], 0.25), quantile(vals[si], 0.75)
			}
			delta := (med[1] - med[0]) / math.Abs(med[0])
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			spread := math.Max((q3[0]-q1[0])/math.Abs(med[0]), (q3[1]-q1[1])/math.Abs(med[1]))
			verdict := "ok"
			switch {
			case worse > m.Bound && allWorse(m.Better, vals[1], vals[0]):
				verdict = "FAIL"
				ok = false
			case worse > m.Bound:
				verdict = "unresolved (runs overlap)"
			case spread > m.Bound && !allWorse(m.Better, vals[0], vals[1]):
				verdict = fmt.Sprintf("unresolved (spread %.2f)", spread)
			}
			fmt.Fprintf(w, "%-14s %-9s %-30s %-30s %+7.1f%% %6s %6.2f  %s\n", m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", med[0], q1[0], q3[0]),
				fmt.Sprintf("%.4g [%.4g, %.4g]", med[1], q1[1], q3[1]),
				100*delta, fmt.Sprintf("%d/%d", wins, len(pairs)), m.Bound, verdict)
		}
	}
	return ok, nil
}

// better reports whether a is strictly better than b.
func better(direction string, a, b float64) bool {
	if direction == "higher" {
		return a > b
	}
	return a < b
}

// allWorse reports whether every value in a is worse than every value
// in b.
func allWorse(direction string, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(direction, y, x) {
				return false
			}
		}
	}
	return true
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}
