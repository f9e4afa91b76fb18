// Command perfbench is the repository benchmark: one command that
// builds a workload's inputs from a seed, drives the colorbars layers
// through their public entry points, checks every output, and prints
// each metric by name with its unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also records spans at every layer boundary and reports the
// per-layer metrics instead. A failed correctness check exits non-zero
// without printing a result.
//
// See README.md in this directory for the workloads and the layer →
// metric → end-to-end map.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics. End-to-end and per-layer metrics
// are kept apart; the trace flag picks which set is printed.
type report struct {
	attempted, failed int
	e2e, layer        map[string]metric
	notes             []string // human-readable lines printed before the JSON
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *report) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *report) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload runs one named workload for the given measuring time.
type workload func(seed int64, seconds float64, tr *tracer, rep *report) error

var workloads = map[string]workload{
	"clean-16csk": func(seed int64, seconds float64, tr *tracer, rep *report) error {
		return runDecode(clean16CSK(), seed, seconds, tr, rep)
	},
	"chaos-4csk": func(seed int64, seconds float64, tr *tracer, rep *report) error {
		return runDecode(chaos4CSK(), seed, seconds, tr, rep)
	},
	"fleet": runFleet,
}

// errGate marks a failed correctness check.
var errGate = errors.New("correctness gate failed")

func main() {
	name := flag.String("workload", "", "workload: clean-16csk, chaos-4csk or fleet")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload <clean-16csk|chaos-4csk|fleet> -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	if err := run(*name, w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
}

func run(name string, w workload, seed int64, seconds float64, traced bool) error {
	host := fingerprint()
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", name, seed, seconds, traced)
	fmt.Printf("host %s\n", host)

	tr := newTracer(traced)
	rep := newReport()
	if err := w(seed, seconds, tr, rep); err != nil {
		return err
	}
	rep.setE2E("peak_rss_mb", "MB", peakRSSMB())

	metrics := rep.e2e
	if traced {
		metrics = rep.layer
		path, err := tr.write(name, seed, host)
		if err != nil {
			return err
		}
		fmt.Print(tr.table())
		fmt.Printf("spans written to %s\n", path)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(metrics))
	for n, m := range metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			return fmt.Errorf("%s is %v", n, m.Value)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	line, err := json.Marshal(result{
		Correct:   true,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// outDir is where traces are written: the build directory the wrapper
// script exports, or the working directory.
func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return "."
}

// fingerprint identifies the host and source a result came from:
// GOARCH, CPU model, nproc, GOMAXPROCS, Go version and commit. Outside
// a git checkout the commit is a digest of the Go sources instead.
func fingerprint() string {
	return fmt.Sprintf("goarch=%s cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		runtime.GOARCH, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "src-" + sourceDigest(".")
}

// sourceDigest hashes every Go source and module file under root, in
// path order, skipping dot directories (build output lives there).
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / 1e6
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
