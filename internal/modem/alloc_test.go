package modem

import (
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/csk"
	"colorbars/internal/linkstats"
	"colorbars/internal/telemetry"
)

// allocLink captures a clean-link video and warms the receiver through
// one full pass (calibration applied, every pool and free-list
// populated), returning the frames for steady-state measurement. The
// receiver carries a linkstats collector and telemetry registry — the
// production configuration — so the zero-alloc claim covers the
// instrumented path.
func allocLink(t testing.TB, order csk.Order, rate float64) (*linkUnderTest, []*camera.Frame) {
	t.Helper()
	prof := camera.Nexus5()
	l := newLink(t, order, rate, prof, 7)
	tel := telemetry.NewRegistry()
	ls := linkstats.NewCollector(linkstats.Config{
		Points:        int(order),
		BitsPerSymbol: order.BitsPerSymbol(),
		Telemetry:     tel,
	})
	rx, err := NewReceiver(RxConfig{
		Order:         order,
		SymbolRate:    rate,
		WhiteFraction: 0.2,
		Code:          l.rx.cfg.Code,
		Telemetry:     tel,
		LinkStats:     ls,
	})
	if err != nil {
		t.Fatal(err)
	}
	l.rx = rx
	msg := make([]byte, 4*l.rx.cfg.Code.K())
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	w, err := l.tx.BuildWaveformRepeating(msg, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	frames := l.cam.CaptureVideo(w, 0, int(2*prof.FrameRate))
	if len(frames) == 0 {
		t.Fatal("no frames captured")
	}
	for _, f := range frames {
		l.rx.Recycle(l.rx.ProcessFrame(f))
	}
	if !l.rx.Calibrated() {
		t.Fatal("receiver did not calibrate during warmup")
	}
	return l, frames
}

// TestProcessFrameZeroAlloc pins the tentpole's core claim: after
// calibration, the full per-frame receive path — front end, classify,
// deframe, RS decode, linkstats — runs without heap allocation when
// the caller recycles each batch of blocks. 4-CSK at 1.5 kHz is the
// multi-gap case: its packets span several frames, so the receiver
// runs the loss-split search with its memoized slot classes, and the
// test requires more RS attempts than frames to prove it did.
func TestProcessFrameZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	for _, tc := range []struct {
		order     csk.Order
		rate      float64
		splitting bool // packets straddle several gaps
	}{
		{csk.CSK8, 2000, false},
		{csk.CSK16, 3000, false},
		{csk.CSK32, 4000, false},
		{csk.CSK4, 1500, true},
	} {
		l, frames := allocLink(t, tc.order, tc.rate)
		attempts := l.rx.c.rsAttempts.Value()
		i := 0
		allocs := testing.AllocsPerRun(2*len(frames), func() {
			l.rx.Recycle(l.rx.ProcessFrame(frames[i%len(frames)]))
			i++
		})
		if allocs != 0 {
			t.Errorf("csk%d@%v: ProcessFrame allocates %.2f/op in steady state, want 0",
				int(tc.order), tc.rate, allocs)
		}
		if got := l.rx.c.rsAttempts.Value() - attempts; tc.splitting && got <= int64(i) {
			t.Errorf("csk%d@%v: %d RS attempts over %d frames; the loss-split search did not run",
				int(tc.order), tc.rate, got, i)
		}
	}
}

// TestAnalyzeZeroAlloc pins the state-independent front end alone: the
// columnar path runs entirely on pooled scratch.
func TestAnalyzeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	l, frames := allocLink(t, csk.CSK16, 3000)
	i := 0
	allocs := testing.AllocsPerRun(2*len(frames), func() {
		recycleAnalysis(l.rx.Analyze(frames[i%len(frames)]))
		i++
	})
	if allocs != 0 {
		t.Errorf("Analyze allocates %.2f/op in steady state, want 0", allocs)
	}
}

// TestProcessAnalysisZeroAlloc pins the sequential tail fed from
// pre-computed analyses, the split internal/pipeline runs.
func TestProcessAnalysisZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	l, frames := allocLink(t, csk.CSK16, 3000)
	i := 0
	allocs := testing.AllocsPerRun(2*len(frames), func() {
		a := l.rx.Analyze(frames[i%len(frames)])
		l.rx.Recycle(l.rx.ProcessAnalysis(a))
		i++
	})
	if allocs != 0 {
		t.Errorf("Analyze+ProcessAnalysis allocates %.2f/op in steady state, want 0", allocs)
	}
}

// BenchmarkDecodeCells times ProcessFrame at the operating points
// TestProcessFrameZeroAlloc pins, kept next to the alloc tests so
// -memprofile points straight at any hot-path regression.
func BenchmarkDecodeCells(b *testing.B) {
	for _, tc := range []struct {
		name  string
		order csk.Order
		rate  float64
	}{
		{"csk8@2kHz", csk.CSK8, 2000},
		{"csk16@3kHz", csk.CSK16, 3000},
		{"csk32@4kHz", csk.CSK32, 4000},
		{"csk4@1.5kHz", csk.CSK4, 1500},
	} {
		b.Run(tc.name, func(b *testing.B) {
			l, frames := allocLink(b, tc.order, tc.rate)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.rx.Recycle(l.rx.ProcessFrame(frames[i%len(frames)]))
			}
		})
	}
}
