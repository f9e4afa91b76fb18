// Command colorbars-tx encodes a message into the on-air ColorBars
// waveform and writes it as CSV — one line per symbol period with the
// tri-LED's linear RGB drive levels. The dump is what a PWM controller
// would execute, and cmd/colorbars-rx decodes it back through the
// camera simulator.
//
// Usage:
//
//	colorbars-tx [-order n] [-rate hz] [-white frac] [-repeat s]
//	             [-adapt rung] [-o file] [-trace file.jsonl] [message...]
//
// -adapt N announces modulation-ladder rung N (0-based) in every
// calibration packet's metadata region (the in-band negotiation
// channel of DESIGN.md §13); a receiver run with its own -adapt flag
// surfaces the announced rung in link reports and /debug/link, while
// an un-upgraded receiver decodes the waveform unchanged. The
// announcement is skipped (with a warning) when the metadata-bearing
// calibration packet cannot fit one frame's visible symbol window at
// the configured rate.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"colorbars"
	"colorbars/internal/telemetry"
)

// main delegates to run so that every deferred cleanup — the debug
// listener, the trace sink, the output file — executes on error paths
// too; os.Exit in the middle of main would skip them all.
func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() (err error) {
	order := flag.Int("order", 16, "CSK order: 4, 8, 16, 32")
	rate := flag.Float64("rate", 4000, "symbol rate in Hz")
	white := flag.Float64("white", 0, "white illumination fraction (0 = auto)")
	repeat := flag.Float64("repeat", 0, "repeat the broadcast to cover this many seconds (0 = single pass)")
	adapt := flag.Int("adapt", -1, "announce this modulation-ladder rung (0-based) in calibration metadata (-1 = off)")
	out := flag.String("o", "-", "output file (- for stdout)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address (empty = off)")
	tracePath := flag.String("trace", "", "write a JSONL trace of every stage span and counter to this file")
	flag.Parse()

	stop, err := telemetry.ServeTool(*telemetryAddr, *tracePath)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	message := strings.Join(flag.Args(), " ")
	if message == "" {
		message = "hello from colorbars-tx"
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
	if *adapt >= 0 {
		if tx.AnnounceRung(*adapt, 0) {
			fmt.Fprintf(os.Stderr, "announcing ladder rung %d in calibration metadata\n", *adapt)
		} else {
			fmt.Fprintf(os.Stderr, "warning: calibration metadata does not fit the visible window at this rate; rung not announced\n")
		}
	}
	var wave *colorbars.Waveform
	if *repeat > 0 {
		wave, err = tx.Broadcast([]byte(message), *repeat)
	} else {
		wave, err = tx.Encode([]byte(message))
	}
	if err != nil {
		return err
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "# colorbars waveform: order=%d rate=%g white=%.3f symbols=%d duration=%.3fs\n",
		*order, *rate, tx.Config().WhiteFraction, wave.NumSymbols(), wave.Duration())
	fmt.Fprintln(bw, "# symbol_index,r,g,b")
	for i := 0; i < wave.NumSymbols(); i++ {
		d := wave.Drive(i)
		fmt.Fprintf(bw, "%d,%.6f,%.6f,%.6f\n", i, d.R, d.G, d.B)
	}
	return nil
}
