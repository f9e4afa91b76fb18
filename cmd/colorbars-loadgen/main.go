// Command colorbars-loadgen replays a fleet of simulated capture
// devices against the ingest service and reports submit-to-decode
// latency percentiles (p50/p99) and the shed rate once admission
// control engages.
//
// Usage:
//
//	colorbars-loadgen [-addr host:port] [-devices n] [-rounds n]
//	                  [-seconds s] [-order n] [-rate hz] [-white frac]
//	                  [-concurrency n] [-verify n] [-seed n]
//	                  [-shards n] [-workers n] [-queue-depth n]
//	                  [-fill fps] [-burst n]
//	                  [-telemetry-addr host:port] [-json file]
//
// With no -addr the tool self-hosts an in-process ingest service
// (configured by -shards/-workers/-queue-depth/-fill/-burst) and
// replays against it — the one-command path for measuring the service
// at saturation. With -addr it drives an external service and the
// server-side flags are ignored. Devices cycle through the Nexus 5,
// iPhone 5S and ideal device-survey profiles; -rounds ≥ 2 reconnects
// every device so the calibration cache's effect shows up in the
// second round's latencies. -verify re-decodes that many sessions
// in-process and digest-compares the block streams (shed frames
// excluded); any mismatch is a hard failure.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"colorbars/internal/csk"
	"colorbars/internal/ingest"
	"colorbars/internal/ingest/loadgen"
	"colorbars/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() (err error) {
	addr := flag.String("addr", "", "ingest service address (empty = self-host an in-process service)")
	devices := flag.Int("devices", 500, "fleet size")
	rounds := flag.Int("rounds", 2, "sessions per device (>= 2 exercises the calibration cache)")
	seconds := flag.Float64("seconds", 1, "simulated capture seconds per session")
	order := flag.Int("order", 8, "CSK order: 4, 8, 16, 32")
	rate := flag.Float64("rate", 2000, "symbol rate in Hz")
	white := flag.Float64("white", 0.2, "white illumination fraction")
	concurrency := flag.Int("concurrency", 16, "simultaneously open sessions")
	verify := flag.Int("verify", 8, "sessions to re-decode serially and digest-compare (-1 = all)")
	seed := flag.Int64("seed", 1, "capture and payload seed")
	shards := flag.Int("shards", 4, "self-hosted service: pipeline shard count")
	workers := flag.Int("workers", 0, "self-hosted service: analyze workers per shard (0 = one per CPU)")
	queueDepth := flag.Int("queue-depth", 0, "self-hosted service: per-stream input queue depth (0 = default)")
	fill := flag.Float64("fill", 0, "self-hosted service: admission token bucket refill rate, frames/s (0 = unlimited)")
	burst := flag.Float64("burst", 0, "self-hosted service: token bucket burst (0 = fill rate)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /debug/vars, /debug/pprof/ and /debug/ingest on this address (empty = off)")
	jsonOut := flag.String("json", "", "also write the result as JSON to this file")
	flag.Parse()

	stop, err := telemetry.ServeTool(*telemetryAddr, "")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	target := *addr
	if target == "" {
		srv, err := ingest.New(ingest.Config{
			Shards:          *shards,
			WorkersPerShard: *workers,
			QueueDepth:      *queueDepth,
			FillRate:        *fill,
			Burst:           *burst,
			Telemetry:       telemetry.Process().NewChild(),
		})
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Close(ctx)
		}()
		target = srv.Addr().String()
		fmt.Fprintf(os.Stderr, "self-hosted ingest service on %s (%d shards)\n", target, *shards)
	}

	res, err := loadgen.Run(loadgen.Params{
		Addr:          target,
		Devices:       *devices,
		Rounds:        *rounds,
		Seconds:       *seconds,
		Order:         csk.Order(*order),
		SymbolRate:    *rate,
		WhiteFraction: *white,
		Seed:          *seed,
		Concurrency:   *concurrency,
		Verify:        *verify,
	})
	if err != nil {
		return err
	}
	fmt.Println(res.String())

	if *jsonOut != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "result written to %s\n", *jsonOut)
	}
	if res.DigestMismatches > 0 {
		return fmt.Errorf("%d of %d verified sessions decoded differently over the wire than in-process",
			res.DigestMismatches, res.Verified)
	}
	return nil
}
