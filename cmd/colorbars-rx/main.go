// Command colorbars-rx reads a waveform dump produced by
// cmd/colorbars-tx, images it through the rolling-shutter camera
// simulator, and runs the concurrent receive pipeline, printing any
// recovered messages.
//
// Usage:
//
//	colorbars-rx [-device nexus5|iphone5s|ideal] [-order n] [-rate hz]
//	             [-white frac] [-duration s] [-seed n]
//	             [-workers n] [-streams n] [-chaos all|class,class,...]
//	             [-adapt] [-telemetry-addr host:port] [-trace file.jsonl]
//	             [-report] [-report-json file.json] [file]
//
// The link parameters (order, rate, white fraction) must match the
// transmitter's; in a deployment they are part of the published sign
// format. Decoding runs on the concurrent pipeline (-workers sizes
// the analysis pool, 0 = one per CPU); -streams N simulates N
// cameras watching the same sign with independent sensor noise, each
// decoding on its own stream of the shared pool. -chaos runs the
// capture through the fault-injection layer (internal/fault) with a
// seed-derived impairment schedule; the per-stream stats then show
// the receiver's recovery counters (resyncs, stale calibrations,
// degraded blocks). -adapt records modulation-ladder rungs announced
// in calibration metadata (a colorbars-tx -adapt waveform), so the
// current rung and rung history appear in the reports. -report prints
// each stream's end-of-run link-quality report (health score,
// ground-truth-free margins, RS correction load, self-heal counters)
// to stderr; -report-json writes the same reports as one JSON
// document. While running, every stream's live report is published at
// the -telemetry-addr debug server's /debug/link endpoint.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"colorbars"
	"colorbars/internal/camera"
	"colorbars/internal/colorspace"
	"colorbars/internal/fault"
	"colorbars/internal/led"
	"colorbars/internal/telemetry"
)

// main delegates to run so deferred cleanup — the debug listener, the
// trace file, the input file — executes on error exits too; a bare
// os.Exit mid-main would leak the telemetry listener's port.
func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() (err error) {
	device := flag.String("device", "nexus5", "receiver device: nexus5, iphone5s, ideal")
	order := flag.Int("order", 16, "CSK order: 4, 8, 16, 32")
	rate := flag.Float64("rate", 4000, "symbol rate in Hz")
	white := flag.Float64("white", 0, "white illumination fraction (0 = auto; must match the transmitter)")
	duration := flag.Float64("duration", 0, "capture seconds (0 = whole waveform)")
	seed := flag.Int64("seed", 1, "camera noise seed")
	workers := flag.Int("workers", 0, "analysis worker pool size (0 = one per CPU)")
	streams := flag.Int("streams", 1, "number of independent receiver streams (cameras) decoding the waveform")
	chaos := flag.String("chaos", "", "inject a seed-derived impairment schedule: \"all\" or a comma-separated fault class list (empty = off)")
	adapt := flag.Bool("adapt", false, "record modulation-ladder rungs announced in calibration metadata (shows in -report and /debug/link)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address (empty = off)")
	tracePath := flag.String("trace", "", "write a JSONL trace of every pipeline stage and counter to this file")
	report := flag.Bool("report", false, "print each stream's end-of-run link-quality report to stderr")
	reportJSON := flag.String("report-json", "", "write every stream's link-quality report as one JSON document to this file")
	flag.Parse()
	if *streams < 1 {
		return fmt.Errorf("-streams %d: need at least one stream", *streams)
	}

	prof, ok := camera.Profiles()[*device]
	if !ok {
		return fmt.Errorf("unknown device %q", *device)
	}
	stop, err := telemetry.ServeTool(*telemetryAddr, *tracePath)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	in := os.Stdin
	if flag.NArg() > 0 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	drives, err := readWaveform(in)
	if err != nil {
		return err
	}
	wave, err := led.NewWaveform(led.Config{SymbolRate: *rate, Power: 1}, drives)
	if err != nil {
		return err
	}

	cfg := colorbars.Config{
		Order:              colorbars.Order(*order),
		SymbolRate:         *rate,
		WhiteFraction:      *white,
		TrackAnnouncedRung: *adapt,
	}
	capture := wave.Duration()
	if *duration > 0 && *duration < capture {
		capture = *duration
	}
	chaosClasses, err := parseChaos(*chaos)
	if err != nil {
		return err
	}

	// One pipeline, one stream per simulated camera: each stream gets
	// independent sensor noise (seed+i) but decodes the same sign.
	p := colorbars.NewPipeline(colorbars.PipelineConfig{Workers: *workers})
	type lane struct {
		id     string
		s      *colorbars.PipelineStream
		frames []*colorbars.Frame
	}
	lanes := make([]*lane, *streams)
	var mu sync.Mutex // serializes printing across streams
	found := 0
	var consumers sync.WaitGroup
	for i := range lanes {
		id := fmt.Sprintf("led%d", i)
		s, err := p.AddStream(id, cfg)
		if err != nil {
			return err
		}
		// Live link report at /debug/link (visible via -telemetry-addr).
		s.PublishLink()
		cam := colorbars.NewCamera(prof, *seed+int64(i))
		var src camera.Source = wave
		var inj *fault.Injector
		if len(chaosClasses) > 0 {
			// The schedule (the impairment timeline) is a property of the
			// world, keyed by stream id alone; the injector's noise
			// realization is keyed by the stream's recycle generation as
			// well, so a stream the watchdog recycles and re-adds gets a
			// deterministic-but-fresh phase instead of replaying the
			// original injector's coins from zero.
			schedule := fault.RandomSchedule(fault.DeriveSeed(*seed, "rx.chaos."+id), capture, chaosClasses...)
			injSeed := fault.DeriveSeed(*seed, fmt.Sprintf("%s#g%d", id, s.Generation()))
			inj = fault.New(fault.Config{Seed: injSeed, Schedule: schedule})
			src = inj.WrapSource(wave)
			fmt.Fprintf(os.Stderr, "[%s] chaos schedule: %v\n", id, schedule)
		}
		frames := cam.CaptureVideo(src, 0, int(capture*prof.FrameRate))
		if inj != nil {
			frames = inj.FilterFrames(frames)
		}
		lanes[i] = &lane{
			id:     id,
			s:      s,
			frames: frames,
		}
		consumers.Add(1)
		go func(l *lane) {
			defer consumers.Done()
			for m := range l.s.Messages() {
				mu.Lock()
				found++
				if *streams > 1 {
					fmt.Printf("[%s] message %d (%d blocks): %q\n", l.id, found, m.Blocks, m.Data)
				} else {
					fmt.Printf("message %d (%d blocks): %q\n", found, m.Blocks, m.Data)
				}
				mu.Unlock()
			}
		}(lanes[i])
	}
	// Feed every stream in capture order; Submit blocks on
	// backpressure, so a slow pool throttles the producer instead of
	// ballooning memory.
	ctx := context.Background()
	var producers sync.WaitGroup
	var submitMu sync.Mutex
	var submitErr error // first Submit failure across all producer goroutines
	for _, l := range lanes {
		producers.Add(1)
		go func(l *lane) {
			defer producers.Done()
			for _, f := range l.frames {
				if err := l.s.Submit(ctx, f); err != nil {
					submitMu.Lock()
					if submitErr == nil {
						submitErr = fmt.Errorf("stream %s: %w", l.id, err)
					}
					submitMu.Unlock()
					return
				}
			}
		}(l)
	}
	producers.Wait()
	if err := p.Close(ctx); err != nil {
		return err
	}
	consumers.Wait()
	if submitErr != nil {
		return submitErr
	}

	for _, l := range lanes {
		if *streams > 1 {
			fmt.Fprintf(os.Stderr, "[%s] ", l.id)
		}
		fmt.Fprintln(os.Stderr, l.s.Stats().String())
	}
	if *report {
		for _, l := range lanes {
			fmt.Fprintln(os.Stderr, l.s.LinkReport().Text())
		}
	}
	if *reportJSON != "" {
		reports := make([]colorbars.LinkReport, len(lanes))
		for i, l := range lanes {
			reports[i] = l.s.LinkReport()
		}
		raw, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportJSON, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "link reports written to %s\n", *reportJSON)
	}
	if found == 0 {
		return fmt.Errorf("no message recovered")
	}
	return nil
}

// parseChaos resolves the -chaos flag into fault classes: empty means
// off, "all" selects every class, otherwise a comma-separated list of
// class names (see fault.ParseClass).
func parseChaos(s string) ([]fault.Class, error) {
	if s == "" {
		return nil, nil
	}
	if s == "all" {
		return fault.Classes(), nil
	}
	var classes []fault.Class
	for _, name := range strings.Split(s, ",") {
		c, err := fault.ParseClass(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		classes = append(classes, c)
	}
	return classes, nil
}

// readWaveform parses the colorbars-tx CSV dump.
func readWaveform(f *os.File) ([]colorspace.RGB, error) {
	var drives []colorspace.RGB
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("line %d: want 4 fields, got %d", line, len(parts))
		}
		var rgb [3]float64
		for i := 0; i < 3; i++ {
			v, err := strconv.ParseFloat(parts[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			rgb[i] = v
		}
		drives = append(drives, colorspace.RGB{R: rgb[0], G: rgb[1], B: rgb[2]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(drives) == 0 {
		return nil, fmt.Errorf("empty waveform")
	}
	return drives, nil
}
