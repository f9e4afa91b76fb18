// Command colorbars-bench regenerates every table and figure from the
// ColorBars paper's evaluation (§8) on the simulated substrate and
// prints them in the paper's layout. See EXPERIMENTS.md for the
// recorded paper-vs-measured comparison.
//
// Usage:
//
//	colorbars-bench [-exp all|table1|fig3b|fig3c|fig6|fig8b|grid|baseline|ablations|distance|pipeline|fault|density]
//	                [-duration seconds] [-seed n] [-workers n]
//	                [-telemetry-addr host:port] [-trace file.jsonl]
//
// The pipeline experiment (not part of "all") compares serial decode
// time against the concurrent pipeline at several worker counts on
// the paper's densest workload; -workers sets the pool size used by
// the measured experiments' decode stage (0 = serial decode). The
// fault experiment (also not part of "all") soaks the link under one
// impairment of every fault class (internal/fault) and reports the
// receiver's recovery behaviour. SER prints as — where no symbol was
// compared, so a dead cell does not read as error-free.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"colorbars/internal/camera"
	"colorbars/internal/csk"
	"colorbars/internal/experiments"
	"colorbars/internal/fault"
	"colorbars/internal/fault/soak"
	"colorbars/internal/metrics"
	"colorbars/internal/telemetry"
)

// main delegates to run so deferred cleanup — the debug listener and
// the trace sink — executes on error exits too; os.Exit mid-main
// would skip those defers.
func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() (err error) {
	exp := flag.String("exp", "all", "experiment to run: all, table1, fig3b, fig3c, fig6, fig8b, grid, baseline, ablations, distance, pipeline, fault, density")
	duration := flag.Float64("duration", 3, "simulated seconds per measured cell")
	seed := flag.Int64("seed", 1, "deterministic seed")
	workers := flag.Int("workers", 0, "decode with the concurrent pipeline using this many workers (0 = serial decode)")
	csvDir := flag.String("csv", "", "also write CSV files for the plottable experiments into this directory")
	telemetryAddr := flag.String("telemetry-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address (empty = off)")
	tracePath := flag.String("trace", "", "write a JSONL trace of every stage span and counter to this file")
	flag.Parse()
	csvOutDir = *csvDir
	decodeWorkers = *workers

	runners := map[string]func(float64, int64) error{
		"table1":    runTable1,
		"fig3b":     runFig3b,
		"fig3c":     runFig3c,
		"fig6":      runFig6,
		"fig8b":     runFig8b,
		"grid":      runGrid,
		"baseline":  runBaseline,
		"ablations": runAblations,
		"distance":  runDistance,
		"pipeline":  runPipeline,
		"fault":     runFault,
		"density":   runDensity,
	}
	// The pipeline scaling sweep is a performance measurement, not a
	// paper figure, so "all" (the reproduction run) excludes it.
	order := []string{"table1", "fig3b", "fig3c", "fig6", "fig8b", "grid", "baseline", "ablations", "distance"}

	var names []string
	if *exp == "all" {
		names = order
	} else if _, ok := runners[*exp]; ok {
		names = []string{*exp}
	} else {
		// Validated before any defers are registered, so exiting directly
		// is safe; keep the distinct usage-error exit code.
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	stop, err := telemetry.ServeTool(*telemetryAddr, *tracePath)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	// Every stochastic component below derives its own stream from this
	// one root seed (fault.DeriveSeed), so any cell can be re-run in
	// isolation with identical results.
	fmt.Printf("root seed: %d\n\n", *seed)
	for _, name := range names {
		if err := runners[name](*duration, *seed); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println()
	}
	return nil
}

// csvOutDir, when non-empty, receives CSV copies of the plottable
// experiment outputs.
var csvOutDir string

// decodeWorkers is the -workers flag: the pipeline pool size the
// locally-built measurement runs decode with (0 = serial).
var decodeWorkers int

// writeCSV writes one experiment's CSV file when -csv is set.
func writeCSV(name string, write func(w *os.File) error) error {
	if csvOutDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(csvOutDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

func runTable1(duration float64, seed int64) error {
	fmt.Println("== Table 1: symbols received per second and inter-frame loss ratio ==")
	rows, err := experiments.Table1(duration, seed)
	if err != nil {
		return err
	}
	if err := writeCSV("table1.csv", func(w *os.File) error {
		return experiments.WriteTable1CSV(w, rows)
	}); err != nil {
		return err
	}
	fmt.Printf("%-12s", "Device")
	for _, r := range experiments.Frequencies {
		fmt.Printf(" %9.0f Hz", r)
	}
	fmt.Printf("  %s\n", "Avg. loss ratio")
	for _, row := range rows {
		fmt.Printf("%-12s", row.Device)
		for _, r := range experiments.Frequencies {
			fmt.Printf(" %12.2f", row.SymbolsPerSecond[r])
		}
		fmt.Printf("  %.4f\n", row.AvgLossRatio)
	}
	return nil
}

func runFig3b(duration float64, seed int64) error {
	fmt.Println("== Fig 3(b): minimum white-light fraction vs symbol frequency ==")
	pts := experiments.Fig3b(seed)
	for _, p := range pts {
		fmt.Printf("  %5.0f Hz  %.2f\n", p.SymbolFrequency, p.WhiteFraction)
	}
	return writeCSV("fig3b.csv", func(w *os.File) error {
		return experiments.WriteFig3bCSV(w, pts)
	})
}

func runFig3c(duration float64, seed int64) error {
	fmt.Println("== Fig 3(c): color band width vs symbol rate (Nexus 5 rows) ==")
	pts, err := experiments.Fig3c(camera.Nexus5(), []float64{1000, 2000, 3000, 4000}, seed)
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("  %5.0f sym/s  %6.1f rows\n", p.SymbolRate, p.BandWidthRows)
	}
	return nil
}

func runFig6(duration float64, seed int64) error {
	fmt.Println("== Fig 6(a): 8-CSK constellation as perceived per device ({a,b}) ==")
	rows, err := experiments.Fig6a(seed)
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Printf("  %s:\n", row.Device)
		for i, o := range row.Observed {
			fmt.Printf("    sym %d: observed (%6.1f, %6.1f)  ideal (%6.1f, %6.1f)\n",
				i, o.A, o.B, row.Ideal[i].A, row.Ideal[i].B)
		}
	}
	fmt.Println("== Fig 6(b): perceived {a,b} of pure blue vs exposure (Nexus 5) ==")
	bPts, err := experiments.Fig6b(camera.Nexus5(), seed)
	if err != nil {
		return err
	}
	for _, p := range bPts {
		fmt.Printf("  exposure %7.4fs  ({%6.1f, %6.1f})\n", p.Exposure, p.AB.A, p.AB.B)
	}
	fmt.Println("== Fig 6(c): perceived {a,b} of pure blue vs ISO (Nexus 5) ==")
	cPts, err := experiments.Fig6c(camera.Nexus5(), seed)
	if err != nil {
		return err
	}
	for _, p := range cPts {
		fmt.Printf("  ISO %6.0f  ({%6.1f, %6.1f})\n", p.ISO, p.AB.A, p.AB.B)
	}
	return nil
}

func runFig8b(duration float64, seed int64) error {
	fmt.Println("== Fig 8(b): per-position color variance, RGB vs CIELab ==")
	res, err := experiments.Fig8b(camera.Nexus5(), seed)
	if err != nil {
		return err
	}
	fmt.Printf("  RGB variance:    %8.2f\n", res.VarianceRGB)
	fmt.Printf("  CIELab variance: %8.2f\n", res.VarianceLab)
	fmt.Printf("  reduction:       %8.1fx\n", res.VarianceRGB/res.VarianceLab)
	return nil
}

func runGrid(duration float64, seed int64) error {
	fmt.Println("== Figs 9, 10, 11: SER / throughput / goodput grid ==")
	cells, err := experiments.EvaluationGrid(duration, seed)
	if err != nil {
		return err
	}
	if err := writeCSV("grid.csv", func(w *os.File) error {
		return experiments.WriteGridCSV(w, cells)
	}); err != nil {
		return err
	}
	byDevice := map[string][]experiments.EvalCell{}
	for _, c := range cells {
		byDevice[c.Device] = append(byDevice[c.Device], c)
	}
	devices := make([]string, 0, len(byDevice))
	for d := range byDevice {
		devices = append(devices, d)
	}
	sort.Strings(devices)
	for _, dev := range devices {
		fmt.Printf("  -- %s --\n", dev)
		fmt.Printf("  %-8s %-8s %12s %9s %14s %14s\n", "Order", "Rate", "SER", "Symbols", "Thrpt (bps)", "Goodput (bps)")
		for _, c := range byDevice[dev] {
			fmt.Printf("  %-8v %6.0f %14s %9d %14.0f %14.0f\n",
				c.Order, c.SymbolRate, fmtSER(c.Result), c.Result.SymbolsCompared,
				c.Result.ThroughputBps, c.Result.GoodputBps)
		}
	}
	return nil
}

func runBaseline(duration float64, seed int64) error {
	fmt.Println("== Baseline comparison: OOK / FSK / ColorBars ==")
	res, err := experiments.BaselineComparison(duration, seed)
	if err != nil {
		return err
	}
	fmt.Printf("  undersampled OOK: %8.2f bytes/s\n", res.OOKBytesPerSecond)
	fmt.Printf("  rolling FSK:      %8.2f bytes/s\n", res.FSKBytesPerSecond)
	fmt.Printf("  ColorBars (best): %8.2f bytes/s (%.1f kbps)\n",
		res.ColorBarsBestGoodputBps/8, res.ColorBarsBestGoodputBps/1000)
	return nil
}

func runAblations(duration float64, seed int64) error {
	fmt.Println("== Ablations (Nexus 5, 16-CSK @ 3 kHz) ==")
	base := metrics.LinkParams{
		Order: csk.CSK16, SymbolRate: 3000, Profile: camera.Nexus5(),
		WhiteFraction: 0.2, Duration: duration, Seed: seed,
		Workers: decodeWorkers,
	}
	full, err := metrics.Run(base)
	if err != nil {
		return err
	}
	noCal := base
	noCal.UseFactoryRefs = true
	factory, err := metrics.Run(noCal)
	if err != nil {
		return err
	}
	noEras := base
	noEras.NoErasureDecoding = true
	errorsOnly, err := metrics.Run(noEras)
	if err != nil {
		return err
	}
	fmt.Printf("  %-34s %10s %9s %14s\n", "Variant", "SER", "Symbols", "Goodput (bps)")
	for _, v := range []struct {
		name string
		res  metrics.LinkResult
	}{
		{"full system", full},
		{"factory references (no calib.)", factory},
		{"no erasure hints (errors only)", errorsOnly},
	} {
		fmt.Printf("  %-34s %10s %9d %14.0f\n", v.name, fmtSER(v.res), v.res.SymbolsCompared, v.res.GoodputBps)
	}
	return nil
}

// fmtSER formats a result's SER, or — when no symbol was compared.
func fmtSER(r metrics.LinkResult) string {
	if r.SymbolsCompared == 0 {
		return "—"
	}
	return fmt.Sprintf("%.4f", r.SER)
}

// runPipeline measures receiver-side decode scaling: the same CSK-32
// @ 4 kHz capture decoded serially and through the concurrent
// pipeline at 1, 2 and 4 workers. Decode wall time comes from each
// run's metrics.decode span; the goodput column demonstrates the
// byte-identical guarantee (every row must match).
func runPipeline(duration float64, seed int64) error {
	fmt.Println("== Pipeline scaling: decode time vs workers (Nexus 5, 32-CSK @ 4 kHz) ==")
	base := metrics.LinkParams{
		Order: csk.CSK32, SymbolRate: 4000, Profile: camera.Nexus5(),
		WhiteFraction: 0.2, Duration: duration, Seed: seed,
	}
	fmt.Printf("  %-10s %14s %14s %12s %9s\n", "Workers", "Decode (s)", "Goodput (bps)", "SER", "Symbols")
	for _, workers := range []int{0, 1, 2, 4} {
		p := base
		p.Workers = workers
		res, err := metrics.Run(p)
		if err != nil {
			return err
		}
		decode := res.Telemetry.Histograms["metrics.decode"].Sum
		label := "serial"
		if workers > 0 {
			label = fmt.Sprintf("%d", workers)
		}
		fmt.Printf("  %-10s %14.3f %14.0f %12s %9d\n", label, decode, res.GoodputBps, fmtSER(res), res.SymbolsCompared)
	}
	return nil
}

// runFault soaks the link under one randomized impairment of every
// fault class and reports the self-healing receiver's behaviour:
// block survival, recovery counters, and re-acquisition latency. The
// clean row is the same link with no impairments, for reference.
func runFault(duration float64, seed int64) error {
	fmt.Println("== Fault soak: recovery per impairment class (Nexus 5, 8-CSK @ 2 kHz) ==")
	if duration < 6 {
		duration = 6 // shorter captures cut schedules off mid-impairment
	}
	fmt.Printf("  %-18s %10s %8s %10s %10s %14s\n",
		"Class", "Blocks ok", "Resyncs", "Stale cal", "Degraded", "Recovery (fr)")
	row := func(name string, p soak.Params) error {
		r, err := soak.Run(p)
		if err != nil {
			return err
		}
		rec := "-"
		if r.WorstRecoveryFrames >= 0 {
			rec = fmt.Sprintf("%d", r.WorstRecoveryFrames)
		}
		fmt.Printf("  %-18s %5d/%-4d %8d %10d %10d %14s\n",
			name, r.BlocksOK, r.BlocksOK+r.BlocksFailed,
			r.Resyncs, r.StaleCalibrations, r.DegradedBlocks, rec)
		return nil
	}
	clean := fault.Schedule{Events: []fault.Event{
		{Class: fault.Occlusion, Start: 1, Duration: 0.1, Magnitude: 0},
	}}
	if err := row("(clean)", soak.Params{Seed: seed, Duration: duration, Schedule: clean}); err != nil {
		return err
	}
	for _, c := range fault.Classes() {
		p := soak.Params{
			Seed:     fault.DeriveSeed(seed, "bench.fault."+c.String()),
			Duration: duration,
			Classes:  []fault.Class{c},
		}
		if err := row(c.String(), p); err != nil {
			return err
		}
	}
	return nil
}

// runDensity sweeps constellation density from 4-CSK to 256-CSK on an
// ideal sensor, equalized vs. unequalized, clean vs. the dense drift
// chaos, with the calibration interval stretched to ~3x the paper's —
// the regime where drift tracking between calibrations decides what a
// dense constellation actually delivers. Not part of "all": it
// measures the repo's dense extension, not a paper figure.
func runDensity(duration float64, seed int64) error {
	fmt.Println("== Density sweep: SER / goodput vs constellation order (ideal sensor, 4 kHz, cal every 18) ==")
	cells, err := experiments.DensitySweep(duration, seed)
	if err != nil {
		return err
	}
	if err := writeCSV("density.csv", func(w *os.File) error {
		return experiments.WriteDensityCSV(w, cells)
	}); err != nil {
		return err
	}
	fmt.Printf("  %-9s %-6s %-6s %10s %9s %14s %8s\n",
		"Order", "Eq", "Chaos", "SER", "Symbols", "Goodput (bps)", "EqConf")
	for _, c := range cells {
		if c.Err != nil {
			fmt.Printf("  %-9v %-6v %-6v %10s  (%v)\n", c.Order, c.Equalized, c.Chaos, "-", c.Err)
			continue
		}
		fmt.Printf("  %-9v %-6v %-6v %10s %9d %14.0f %8.2f\n",
			c.Order, c.Equalized, c.Chaos,
			fmtSER(c.Result), c.Result.SymbolsCompared, c.Result.GoodputBps, c.Result.EqConfidence)
	}
	fmt.Println("  (256-CSK rows: the 256-color calibration body no longer fits a 30 fps frame, so the link never calibrates — the honest ceiling of this camera generation.)")
	return nil
}

func runDistance(duration float64, seed int64) error {
	fmt.Println("== Distance sweep (paper §10 future work: LED arrays for range) ==")
	pts, err := experiments.DistanceSweep(camera.Nexus5(),
		[]float64{0.03, 0.06, 0.12, 0.25, 0.5},
		[]float64{1, 16, 64}, duration, seed)
	if err != nil {
		return err
	}
	if err := writeCSV("distance.csv", func(w *os.File) error {
		return experiments.WriteDistanceCSV(w, pts)
	}); err != nil {
		return err
	}
	fmt.Printf("  %-10s %-12s %14s %10s\n", "Power", "Distance", "Goodput (bps)", "SER")
	for _, p := range pts {
		fmt.Printf("  %-10.0f %-12.2f %14.0f %10.4f\n", p.Power, p.DistanceMeters, p.GoodputBps, p.SER)
	}
	return nil
}
