// Command colorbars-sim runs one end-to-end ColorBars link — LED
// transmitter, optical channel, rolling-shutter camera, receiver — and
// prints the measured link statistics.
//
// Usage:
//
//	colorbars-sim [-device nexus5|iphone5s|ideal] [-order 4|8|16|32]
//	              [-rate hz] [-white frac] [-duration s] [-seed n]
//	              [-message text] [-trace file.jsonl]
//	              [-adapt] [-chaos all|class,class,...]
//
// -adapt replaces the fixed link with the closed-loop adaptive
// session (DESIGN.md §13): the transmitter and receiver renegotiate
// their modulation-ladder rung frame by frame from live link health,
// and the tool prints the full transcript — every committed rung
// switch with its frame, time, and trigger. -chaos adds a
// seed-derived impairment schedule so the adaptation has something to
// ride out; -order/-rate/-white are ignored (the ladder governs).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"colorbars"
	"colorbars/internal/camera"
	"colorbars/internal/colorspace"
	"colorbars/internal/fault"
	"colorbars/internal/led"
	"colorbars/internal/render"
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
	device := flag.String("device", "nexus5", "receiver device: nexus5, iphone5s, ideal")
	order := flag.Int("order", 16, "CSK order: 4, 8, 16, 32")
	rate := flag.Float64("rate", 4000, "symbol rate in Hz")
	white := flag.Float64("white", 0, "white illumination fraction (0 = flicker-model auto)")
	duration := flag.Float64("duration", 4, "simulated capture seconds")
	seed := flag.Int64("seed", 1, "deterministic seed")
	message := flag.String("message", "ColorBars: LED-to-camera communication with color shift keying.", "message to broadcast")
	dumpFrame := flag.String("dump-frame", "", "write the first captured frame as a PNG to this path")
	dumpWave := flag.String("dump-waveform", "", "write the first 400 transmitted symbols as a PNG stripe to this path")
	telemetryAddr := flag.String("telemetry-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address (empty = off)")
	tracePath := flag.String("trace", "", "write a JSONL trace of every stage span and counter to this file")
	adapt := flag.Bool("adapt", false, "run the closed-loop adaptive link (modulation ladder + link-adaptation state machine) and print its transcript")
	chaos := flag.String("chaos", "", "with -adapt: inject a seed-derived impairment schedule, \"all\" or a comma-separated fault class list")
	flag.Parse()

	prof, ok := camera.Profiles()[*device]
	if !ok {
		// No defers are registered yet, so exiting directly is safe; keep
		// the distinct usage-error exit code.
		fmt.Fprintf(os.Stderr, "unknown device %q (want nexus5, iphone5s, ideal)\n", *device)
		os.Exit(2)
	}
	stop, err := telemetry.ServeTool(*telemetryAddr, *tracePath)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()
	if *adapt {
		return runAdaptive(prof, *duration, *seed, *chaos)
	}
	cfg := colorbars.Config{
		Order:         colorbars.Order(*order),
		SymbolRate:    *rate,
		WhiteFraction: *white,
	}
	tx, err := colorbars.NewTransmitter(cfg)
	if err != nil {
		return err
	}
	rx, err := colorbars.NewReceiver(cfg)
	if err != nil {
		return err
	}
	wave, err := tx.Broadcast([]byte(*message), *duration)
	if err != nil {
		return err
	}

	resolved := tx.Config()
	fmt.Printf("link: %v @ %.0f Hz, white fraction %.2f, device %s, seed %d\n",
		resolved.Order, resolved.SymbolRate, resolved.WhiteFraction, prof.Name, *seed)

	if *dumpWave != "" {
		if err := dumpWaveformPNG(wave, *dumpWave); err != nil {
			return err
		}
		fmt.Printf("waveform stripe written to %s\n", *dumpWave)
	}

	// Every stochastic component derives its own stream from the one
	// root seed, so unrelated components never share RNG state.
	cam := colorbars.NewCamera(prof, fault.DeriveSeed(*seed, "sim.camera"))
	frames := int(*duration * prof.FrameRate)
	var received *colorbars.Message
	var firstAt float64
	for i := 0; i < frames; i++ {
		f := cam.CaptureVideo(wave, float64(i)*prof.FramePeriod(), 1)[0]
		if i == 0 && *dumpFrame != "" {
			if err := dumpFramePNG(f, *dumpFrame); err != nil {
				return err
			}
			fmt.Printf("frame written to %s\n", *dumpFrame)
		}
		if msgs := rx.ProcessFrame(f); len(msgs) > 0 && received == nil {
			received = &msgs[0]
			firstAt = float64(i+1) * prof.FramePeriod()
		}
	}
	for _, m := range rx.Flush() {
		if received == nil {
			m := m
			received = &m
			firstAt = *duration
		}
	}

	s := rx.Stats()
	fmt.Printf("frames: %d   symbols in: %d (data %d, white %d, off %d)\n",
		s.Frames, s.SymbolsIn, s.DataSymbolsIn, s.WhiteSymbolsIn, s.OffSymbolsIn)
	fmt.Printf("packets: %d data, %d calibration, %d discarded\n",
		s.DataPackets, s.CalibrationPackets, s.DiscardedPackets)
	fmt.Printf("blocks: %d ok, %d failed\n", s.BlocksOK, s.BlocksFailed)
	h := rx.Health()
	fmt.Printf("link health: %.3f (%s), mean margin %.1f\n", h.Score, h.Reason, h.MeanMargin)
	if received == nil {
		return fmt.Errorf("message NOT recovered within the capture window")
	}
	fmt.Printf("message recovered after %.2f s (%d blocks): %q\n",
		firstAt, received.Blocks, received.Data)
	return nil
}

// runAdaptive executes the closed-loop adaptive session and prints
// its transcript: the ladder, the chaos schedule, every committed
// rung switch, and the end-of-run summary.
func runAdaptive(prof camera.Profile, duration float64, seed int64, chaos string) error {
	var schedule fault.Schedule
	if chaos != "" {
		var classes []fault.Class
		if chaos != "all" {
			for _, name := range strings.Split(chaos, ",") {
				c, err := fault.ParseClass(strings.TrimSpace(name))
				if err != nil {
					return err
				}
				classes = append(classes, c)
			}
		}
		schedule = fault.RandomSchedule(fault.DeriveSeed(seed, "sim.chaos"), duration, classes...)
	}
	ladder := colorbars.DefaultLadder()
	names := make([]string, len(ladder))
	for i, r := range ladder {
		names[i] = r.Name
	}
	fmt.Printf("adaptive link: ladder %s, device %s, seed %d, %.0f s\n",
		strings.Join(names, " → "), prof.Name, seed, duration)
	if !schedule.Empty() {
		fmt.Printf("chaos schedule: %v\n", schedule)
	}
	res, err := colorbars.RunAdaptive(colorbars.AdaptiveParams{
		Seed:     seed,
		Duration: duration,
		Profile:  prof,
		Schedule: schedule,
	})
	if err != nil {
		return err
	}
	for _, d := range res.Decisions {
		verb := "step down"
		if d.To > d.From {
			verb = "step up"
		}
		fmt.Printf("t=%5.2fs f%-4d %s %s → %s (%s)\n",
			float64(d.Frame)*prof.FramePeriod(), d.Frame, verb,
			ladder[d.From].Name, ladder[d.To].Name, d.Reason)
	}
	fmt.Println(res.String())
	final := res.RungByFrame[len(res.RungByFrame)-1]
	fmt.Printf("final rung: %s · health %.3f (%s)\n",
		ladder[final].Name, res.Health.Score, res.Health.Reason)
	return nil
}

// dumpFramePNG writes one captured frame as a PNG (scanlines vertical,
// as on a phone held upright).
func dumpFramePNG(f *colorbars.Frame, path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	return render.WritePNG(out, render.Frame(f, 8))
}

// dumpWaveformPNG writes the head of the transmitted symbol stream as
// a color stripe.
func dumpWaveformPNG(w *colorbars.Waveform, path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	img := render.Waveform(head(w, 400), 3, 60)
	return render.WritePNG(out, img)
}

// head returns a waveform holding the first n symbols of w (or w
// itself when shorter).
func head(w *colorbars.Waveform, n int) *colorbars.Waveform {
	if w.NumSymbols() <= n {
		return w
	}
	drives := make([]colorspace.RGB, n)
	for i := 0; i < n; i++ {
		drives[i] = w.Drive(i)
	}
	rate := 1 / w.SymbolPeriod()
	out, err := led.NewWaveform(led.Config{SymbolRate: rate, Power: 1}, drives)
	if err != nil {
		return w
	}
	return out
}
