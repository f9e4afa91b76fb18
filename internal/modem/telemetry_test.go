package modem

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/cie"
	"colorbars/internal/coding"
	"colorbars/internal/csk"
	"colorbars/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestStatsMatchSnapshot checks that RxStats really is a view over the
// telemetry registry: every field must equal the corresponding rx.*
// counter after a real decoding session.
func TestStatsMatchSnapshot(t *testing.T) {
	l := newLink(t, csk.CSK8, 2000, camera.Nexus5(), 1)
	msg := make([]byte, l.tx.Config().Code.K())
	for i := range msg {
		msg[i] = byte(i)
	}
	l.run(t, msg, 2)

	stats := l.rx.Stats()
	snap := l.rx.Snapshot()
	if stats.Frames == 0 || stats.SymbolsIn == 0 {
		t.Fatalf("session processed nothing: %+v", stats)
	}
	want := map[string]int{
		"rx.frames":               stats.Frames,
		"rx.symbols_in":           stats.SymbolsIn,
		"rx.symbols_data":         stats.DataSymbolsIn,
		"rx.symbols_white":        stats.WhiteSymbolsIn,
		"rx.symbols_off":          stats.OffSymbolsIn,
		"rx.packets_data":         stats.DataPackets,
		"rx.packets_calibration":  stats.CalibrationPackets,
		"rx.deframe_discards":     stats.DiscardedPackets,
		"rx.rs_decode_ok":         stats.BlocksOK,
		"rx.rs_decode_fail":       stats.BlocksFailed,
		"rx.calibration_rejected": stats.RejectedCalibrations,
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != int64(v) {
			t.Errorf("%s = %d, stats field says %d", name, got, v)
		}
	}
	// Every per-frame stage span must have fired once per frame.
	for _, span := range []string{"rx.analyze", "rx.strip", "rx.segment", "rx.frame", "rx.classify", "rx.deframe", "rx.decode"} {
		h, ok := snap.Histograms[span]
		if !ok || h.Count != int64(stats.Frames) {
			t.Errorf("span %s observed %d times, want %d", span, h.Count, stats.Frames)
		}
	}
	if snap.Counters["rx.rs_attempts"] < int64(stats.BlocksOK) {
		t.Errorf("rs_attempts %d below decoded blocks %d",
			snap.Counters["rx.rs_attempts"], stats.BlocksOK)
	}
}

// TestGoldenFrameTrace locks the JSONL trace of one decoded frame: the
// event sequence (stage spans, counter increments, timestamps from an
// injected clock) is part of the observable format and must not drift
// silently. Regenerate with: go test ./internal/modem -run GoldenFrameTrace -update
func TestGoldenFrameTrace(t *testing.T) {
	order, rate := csk.CSK8, 2000.0
	prof := camera.Ideal()
	params := coding.Params{
		SymbolRate:   rate,
		FrameRate:    prof.FrameRate,
		LossRatio:    prof.LossRatio(),
		Order:        order,
		DataFraction: 0.8,
	}
	code, err := params.LinkCodeErasure()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := NewTransmitter(TxConfig{
		Order: order, SymbolRate: rate, WhiteFraction: 0.2, Power: 1,
		Triangle: cie.SRGBTriangle, CalibrationEvery: 3, Code: code,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	var tick int64
	reg.SetClock(func() int64 { tick += 1000; return tick })
	rx, err := NewReceiver(RxConfig{
		Order: order, SymbolRate: rate, WhiteFraction: 0.2, Code: code,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	reg.SetSink(sink)

	msg := make([]byte, code.K())
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	w, err := tx.BuildWaveformRepeating(msg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Several frames, so the trace shows complete packets (packets
	// straddle the inter-frame gap and never finish within one frame):
	// calibration application, data packets, and RS decodes.
	frames := camera.New(prof, 1).CaptureVideo(w, 0, 4)
	decoded := 0
	for _, f := range frames {
		for _, blk := range rx.ProcessFrame(f) {
			if blk.Recovered {
				decoded++
			}
		}
	}
	if decoded == 0 {
		t.Fatal("trace session decoded no blocks; golden trace would not cover the decode stages")
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "trace.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace drifted from golden file (run with -update if intended)\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}

// TestTelemetryOverheadSmall bounds the instrumentation cost: the
// telemetry primitives ProcessFrame executes per frame (7 span
// start/end pairs and ~12 counter updates, no sink attached) must cost
// under 5% of a real frame's processing time.
func TestTelemetryOverheadSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-based")
	}
	rx, frames := benchLink(t, csk.CSK8, 2000, camera.Nexus5(), 1, 1)
	frameRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rx.ProcessFrame(frames[i%len(frames)])
		}
	})

	reg := telemetry.NewRegistry()
	ctr := reg.Counter("overhead.probe")
	primRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fr := reg.StartSpan("rx.frame")
			for j := 0; j < 6; j++ {
				sp := fr.StartChild("rx.stage")
				sp.End()
			}
			fr.End()
			for j := 0; j < 12; j++ {
				ctr.Inc()
			}
		}
	})

	frameNs := float64(frameRes.NsPerOp())
	primNs := float64(primRes.NsPerOp())
	t.Logf("ProcessFrame %.0f ns/frame, telemetry primitives %.0f ns/frame (%.3f%%)",
		frameNs, primNs, 100*primNs/frameNs)
	if primNs > 0.05*frameNs {
		t.Errorf("telemetry primitives cost %.0f ns/frame, above 5%% of ProcessFrame's %.0f ns",
			primNs, frameNs)
	}
}

// benchLink builds a receiver and a reusable captured frame sequence
// for benchmarks (newLink needs *testing.T, benchmarks need *testing.B,
// so this takes the common testing.TB).
func benchLink(tb testing.TB, order csk.Order, rate float64, prof camera.Profile, seed int64, seconds float64) (*Receiver, []*camera.Frame) {
	tb.Helper()
	params := coding.Params{
		SymbolRate:   rate,
		FrameRate:    prof.FrameRate,
		LossRatio:    prof.LossRatio(),
		Order:        order,
		DataFraction: 0.8,
	}
	code, err := params.LinkCodeErasure()
	if err != nil {
		tb.Fatal(err)
	}
	tx, err := NewTransmitter(TxConfig{
		Order: order, SymbolRate: rate, WhiteFraction: 0.2, Power: 1,
		Triangle: cie.SRGBTriangle, CalibrationEvery: 3, Code: code,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rx, err := NewReceiver(RxConfig{
		Order: order, SymbolRate: rate, WhiteFraction: 0.2, Code: code,
	})
	if err != nil {
		tb.Fatal(err)
	}
	msg := make([]byte, code.K())
	for i := range msg {
		msg[i] = byte(i * 3)
	}
	w, err := tx.BuildWaveformRepeating(msg, seconds)
	if err != nil {
		tb.Fatal(err)
	}
	frames := camera.New(prof, seed).CaptureVideo(w, 0, int(seconds*prof.FrameRate))
	if len(frames) == 0 {
		tb.Fatal("no frames captured")
	}
	return rx, frames
}

// BenchmarkProcessFrame measures the receive pipeline per frame: the
// default no-sink configuration (what production runs pay) and with a
// JSONL trace sink attached.
func BenchmarkProcessFrame(b *testing.B) {
	b.Run("NoSink", func(b *testing.B) {
		rx, frames := benchLink(b, csk.CSK8, 2000, camera.Nexus5(), 1, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rx.ProcessFrame(frames[i%len(frames)])
		}
	})
	b.Run("JSONLSink", func(b *testing.B) {
		rx, frames := benchLink(b, csk.CSK8, 2000, camera.Nexus5(), 1, 1)
		rx.Telemetry().SetSink(telemetry.NewJSONLSink(discard{}))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rx.ProcessFrame(frames[i%len(frames)])
		}
	})
}

// discard is io.Discard without importing io in the test.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
