// Command colorbars-benchpair times the repository benchmark
// (BENCHMARK.json, perfbench/) on a base commit and on the working
// tree, alternating the two on one host.
//
// Usage, from the repository root:
//
//	colorbars-benchpair -base <git ref>
//	colorbars-benchpair -compare .bench_pair/results.jsonl
//
// With -base it extracts the base commit into a temporary directory
// and runs 10 pairs; each pair draws and prints a fresh seed and runs
// every workload BENCHMARK.json lists (the clean decode path, the
// chaos decode path and the ingest fleet) on both trees for its
// run_seconds, alternating which side goes first. Each run's host and
// result lines are appended to .bench_pair/results.jsonl, then
// compared (see compare). -compare compares a saved file alone. Both
// trees build with -buildvcs=false, so a host line's commit= is a
// digest of the sources that side ran.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

const (
	outDir = ".bench_pair"
	pairs  = 10
)

func main() {
	base := flag.String("base", "", "git ref to compare the working tree against")
	saved := flag.String("compare", "", "compare the saved results in this file instead of running")
	flag.Parse()
	if (*base == "") == (*saved == "") {
		fmt.Fprintln(os.Stderr, "usage: colorbars-benchpair -base <git ref> | -compare <results.jsonl>")
		os.Exit(2)
	}
	if err := run(*base, *saved); err != nil {
		fmt.Fprintln(os.Stderr, "colorbars-benchpair:", err)
		os.Exit(1)
	}
}

func run(base, saved string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if saved == "" {
		saved = filepath.Join(outDir, "results.jsonl")
		if err := runPairs(sp, base, saved); err != nil {
			return err
		}
	}
	recs, err := loadRecords(saved)
	if err != nil {
		return err
	}
	ok, err := compare(os.Stdout, sp, recs)
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("FAIL")
	}
	fmt.Println("\nPASS")
	return nil
}

// runPairs extracts base and runs the pairs, appending one record per
// run to path. It stops at the first failed run.
func runPairs(sp spec, base, path string) error {
	if len(sp.Command) == 0 || sp.RunSeconds <= 0 || len(sp.Workloads) == 0 {
		return errors.New("BENCHMARK.json: no command, run_seconds or workloads")
	}
	var workloads []string
	for _, wl := range sp.Workloads {
		workloads = append(workloads, wl.Name)
	}
	rev, err := exec.Command("git", "rev-parse", "--verify", base+"^{commit}").Output()
	if err != nil {
		return fmt.Errorf("git rev-parse %s: %w", base, err)
	}
	baseDir, err := os.MkdirTemp("", "colorbars-benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(baseDir)
	extract := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", strings.TrimSpace(string(rev)), baseDir)
	extract.Stderr = os.Stderr
	if err := extract.Run(); err != nil {
		return fmt.Errorf("extracting %s: %w", base, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dirs := map[string]string{"base": baseDir, "change": "."}
	fmt.Printf("base %s (%s) against the working tree: %d pairs of %v at %gs\n",
		base, strings.TrimSpace(string(rev))[:12], pairs, workloads, sp.RunSeconds)
	for pair := 1; pair <= pairs; pair++ {
		seed := rand.Int64N(1_000_000) + 1
		order := sides
		if pair%2 == 0 {
			order[0], order[1] = order[1], order[0]
		}
		fmt.Printf("pair %d seed %d\n", pair, seed)
		for _, side := range order {
			for _, wl := range workloads {
				r := runOne(sp, dirs[side], wl, seed)
				r.Pair, r.Side = pair, side
				line, err := json.Marshal(r)
				if err != nil {
					return err
				}
				if _, err := f.Write(append(line, '\n')); err != nil {
					return err
				}
				if r.Error != "" {
					fmt.Printf("  %-6s %-12s error: %s\n", side, wl, r.Error)
					return f.Close()
				}
				fmt.Printf("  %-6s %-12s ok\n", side, wl)
			}
		}
	}
	return f.Close()
}

// runOne runs the benchmark command once in dir and keeps its host
// line and result line.
func runOne(sp spec, dir, workload string, seed int64) record {
	r := record{Workload: workload, Seed: seed}
	args := append(append([]string(nil), sp.Command[1:]...), "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(sp.RunSeconds), "--trace", "0")
	cmd := exec.Command(sp.Command[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS="+strings.TrimSpace(os.Getenv("GOFLAGS")+" -buildvcs=false"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		r.Error = fmt.Sprintf("%v: %s", err, strings.TrimSpace(stderr.String()))
		return r
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, l := range lines {
		if h, ok := strings.CutPrefix(l, "host "); ok {
			r.Host = h
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.Result); err != nil {
		r.Error = fmt.Sprintf("result line: %v", err)
	}
	return r
}

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}
