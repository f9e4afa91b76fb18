package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// testdata/results.jsonl is a saved 10-pair run of the two timed
// workloads. Every case but the first starts from a copy in which the
// change side's results are the base side's, so each edit is the only
// difference between the sides.
func TestCompare(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	saved, err := loadRecords("testdata/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}

	scale := func(workload, metric string, f float64) func([]record) {
		return func(recs []record) {
			for _, r := range recs {
				if r.Side == "change" && r.Workload == workload {
					setMetric(r, metric, metricValue(r, metric)*f)
				}
			}
		}
	}
	for _, c := range []struct {
		name    string
		saved   bool // compare the saved run as it is
		edit    func([]record)
		wantOK  bool
		wantErr string
		wantOut string // regexp the output must match
	}{
		{name: "saved run", saved: true, wantOK: true, wantOut: `(?m)^frame_p99_us .* \d+/10 `},
		{name: "identical", wantOK: true, wantOut: `(?m)^decode_fps .* \+0\.0% +0/10 +0\.25  (ok|unresolved)`},
		{name: "2x frame_p99_us", edit: scale("clean-16csk", "frame_p99_us", 2),
			wantOut: `(?m)^frame_p99_us .* \+100\.0% +0/10 +0\.25  FAIL$`},
		{name: "half decode_fps", edit: scale("fleet", "decode_fps", 0.5),
			wantOut: `(?m)^decode_fps .* -50\.0% +0/10 +0\.25  FAIL$`},
		{name: "overlapping runs past the bound", wantOK: true,
			edit: func(recs []record) {
				// Every change run 1.5x slower but one, which beats
				// every base run: the median is past the bound, the
				// runs overlap.
				best := 0.0
				for _, r := range recs {
					if r.Side == "base" && r.Workload == "clean-16csk" {
						if v := metricValue(r, "frame_p50_us"); best == 0 || v < best {
							best = v
						}
					}
				}
				scale("clean-16csk", "frame_p50_us", 1.5)(recs)
				for _, r := range recs {
					if r.Side == "change" && r.Workload == "clean-16csk" && r.Pair == 1 {
						setMetric(r, "frame_p50_us", best*0.9)
					}
				}
			},
			wantOut: `(?m)^frame_p50_us .* \+\d+\.\d% +1/10 +0\.20  unresolved \(runs overlap\)$`},
		{name: "failed run", wantOut: `(?m)^FAIL: pair 3 change fleet .* did not complete: exit status 1`,
			edit: func(recs []record) {
				for i, r := range recs {
					if r.Side == "change" && r.Workload == "fleet" && r.Pair == 3 {
						recs[i].Result, recs[i].Error = nil, "exit status 1"
					}
				}
			}},
		{name: "larger failed share", wantOut: `(?m)^FAIL: the change fails a larger share of operations$`,
			edit: func(recs []record) {
				for _, r := range recs {
					if r.Side == "change" && r.Workload == "fleet" && r.Pair == 5 {
						r.Result.Failed++
					}
				}
			}},
		{name: "other host", wantErr: "refusing to compare across hosts",
			edit: func(recs []record) {
				recs[len(recs)-1].Host = strings.Replace(recs[len(recs)-1].Host, "nproc=", "nproc=1", 1)
			}},
		{name: "missing side", wantErr: "no change run",
			edit: func(recs []record) {
				for i, r := range recs {
					if r.Side == "change" && r.Workload == "clean-16csk" && r.Pair == 7 {
						recs[i].Side = "base"
						recs[i].Pair = 11
					}
				}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			recs := clone(t, saved)
			if !c.saved {
				base := map[string]*perfResult{}
				for _, r := range recs {
					if r.Side == "base" {
						base[fmt.Sprint(r.Workload, r.Pair)] = r.Result
					}
				}
				for i, r := range recs {
					if r.Side == "change" {
						recs[i].Result = clone(t, base[fmt.Sprint(r.Workload, r.Pair)])
					}
				}
			}
			if c.edit != nil {
				c.edit(recs)
			}
			var out bytes.Buffer
			ok, err := compare(&out, sp, recs)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error %v, want %q\n%s", err, c.wantErr, out.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if ok != c.wantOK {
				t.Errorf("ok = %v, want %v", ok, c.wantOK)
			}
			if c.wantOut != "" && !regexp.MustCompile(c.wantOut).MatchString(out.String()) {
				t.Errorf("output does not match %q:\n%s", c.wantOut, out.String())
			}
		})
	}
}

func metricValue(r record, name string) float64 { return r.Result.Metrics[name].Value }

func setMetric(r record, name string, v float64) {
	m := r.Result.Metrics[name]
	m.Value = v
	r.Result.Metrics[name] = m
}

// clone deep-copies v through JSON.
func clone[T any](t *testing.T, v T) T {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSpecWorkloads checks that the runner reads its workloads from
// BENCHMARK.json, so the chaos decode workload is timed with the rest.
func TestSpecWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, wl := range sp.Workloads {
		names = append(names, wl.Name)
	}
	if !slices.Contains(names, "chaos-4csk") {
		t.Errorf("workloads %q do not include chaos-4csk", names)
	}
}
