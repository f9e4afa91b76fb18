package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/csk"
	"colorbars/internal/telemetry"
)

func TestRunRejectsBadDuration(t *testing.T) {
	_, err := Run(LinkParams{Order: csk.CSK8, SymbolRate: 2000, Profile: camera.Ideal()})
	if err == nil {
		t.Error("expected duration error")
	}
}

func TestRunIdealLowSER(t *testing.T) {
	res, err := Run(LinkParams{
		Order:         csk.CSK8,
		SymbolRate:    2000,
		Profile:       camera.Ideal(),
		WhiteFraction: 0.2,
		Duration:      2,
		Seed:          1,
		// The paper's parity rule assumes real phone loss ratios; the
		// ideal profile's 10% gap under-provisions it, so this harness
		// check uses the erasure-aware sizing.
		ErasureSizing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SymbolsCompared == 0 {
		t.Fatalf("no symbols compared: %+v", res)
	}
	if res.SER > 0.01 {
		t.Errorf("ideal-camera SER = %v, want ~0", res.SER)
	}
	if res.GoodputBps <= 0 {
		t.Errorf("goodput = %v", res.GoodputBps)
	}
	if res.ThroughputBps <= res.GoodputBps/2 {
		t.Errorf("throughput %v implausibly below goodput %v", res.ThroughputBps, res.GoodputBps)
	}
}

func TestRunMeasuredLossMatchesProfile(t *testing.T) {
	for _, prof := range []camera.Profile{camera.Nexus5(), camera.IPhone5S()} {
		res, err := Run(LinkParams{
			Order:         csk.CSK8,
			SymbolRate:    2000,
			Profile:       prof,
			WhiteFraction: 0.2,
			Duration:      2,
			Seed:          2,
		})
		if err != nil {
			t.Fatal(err)
		}
		structural := prof.LossRatio()
		if diff := res.MeasuredLossRatio - structural; diff < -0.05 || diff > 0.1 {
			t.Errorf("%s: measured loss %v vs structural %v", prof.Name, res.MeasuredLossRatio, structural)
		}
	}
}

func TestRunNexusVsIPhoneOrdering(t *testing.T) {
	// The paper's headline device comparison: iPhone has lower SER but
	// higher loss; Nexus has higher throughput.
	run := func(prof camera.Profile) LinkResult {
		res, err := Run(LinkParams{
			Order:         csk.CSK16,
			SymbolRate:    3000,
			Profile:       prof,
			WhiteFraction: 0.2,
			Duration:      3,
			Seed:          3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	nexus := run(camera.Nexus5())
	iphone := run(camera.IPhone5S())
	if nexus.ThroughputBps <= iphone.ThroughputBps {
		t.Errorf("Nexus throughput %v should exceed iPhone %v",
			nexus.ThroughputBps, iphone.ThroughputBps)
	}
	if iphone.MeasuredLossRatio <= nexus.MeasuredLossRatio {
		t.Errorf("iPhone loss %v should exceed Nexus %v",
			iphone.MeasuredLossRatio, nexus.MeasuredLossRatio)
	}
}

func TestRunSERGrowsWithOrderAtHighRate(t *testing.T) {
	// Fig 9: at 4 kHz, CSK32 SER must exceed CSK4 SER on a real
	// profile.
	run := func(order csk.Order) float64 {
		res, err := Run(LinkParams{
			Order:         order,
			SymbolRate:    4000,
			Profile:       camera.Nexus5(),
			WhiteFraction: 0.2,
			Duration:      3,
			Seed:          4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.SER
	}
	low := run(csk.CSK4)
	high := run(csk.CSK32)
	if high <= low {
		t.Errorf("CSK32 SER %v should exceed CSK4 SER %v at 4 kHz", high, low)
	}
	if low > 0.02 {
		t.Errorf("CSK4 SER %v too high (paper: < 1e-3)", low)
	}
}

func TestRunDeterministic(t *testing.T) {
	p := LinkParams{
		Order: csk.CSK8, SymbolRate: 2000, Profile: camera.Nexus5(),
		WhiteFraction: 0.2, Duration: 1, Seed: 5,
	}
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	// Telemetry latency histograms measure wall-clock time and
	// legitimately differ between runs; every counter must match.
	if !reflect.DeepEqual(a.Telemetry.Counters, b.Telemetry.Counters) {
		t.Errorf("same seed produced different telemetry counters:\n%+v\n%+v",
			a.Telemetry.Counters, b.Telemetry.Counters)
	}
	a.Telemetry, b.Telemetry = telemetry.Snapshot{}, telemetry.Snapshot{}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different results:\n%+v\n%+v", a, b)
	}
}

// TestRunWorkersEquivalent decodes the same link serially and through
// the concurrent pipeline: because the pipeline's Block output is
// byte-identical, every measured quantity — SER, throughput, goodput,
// loss, and the receiver's own counters — must match exactly.
func TestRunWorkersEquivalent(t *testing.T) {
	p := LinkParams{
		Order: csk.CSK8, SymbolRate: 2000, Profile: camera.Nexus5(),
		WhiteFraction: 0.2, Duration: 1, Seed: 5,
	}
	serial, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 3
	piped, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	// The pipeline adds its own counters and spans (pipeline.frames_in
	// etc.), so only the measurement results and receiver stats are
	// compared.
	serial.Telemetry, piped.Telemetry = telemetry.Snapshot{}, telemetry.Snapshot{}
	if !reflect.DeepEqual(serial, piped) {
		t.Errorf("pipeline decode changed measurements:\nserial %+v\npiped  %+v", serial, piped)
	}
}

// TestRunTraceCountersMatchStats runs a link with a JSONL trace sink
// attached and checks the books balance: summing every count event's
// delta per counter must reproduce both the final snapshot and the
// RxStats the run reports — the trace is a complete record, not a
// sample.
func TestRunTraceCountersMatchStats(t *testing.T) {
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	res, err := Run(LinkParams{
		Order: csk.CSK8, SymbolRate: 2000, Profile: camera.Nexus5(),
		WhiteFraction: 0.2, Duration: 2, Seed: 8,
		Telemetry: telemetry.NewRegistry(), Trace: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	sums := map[string]int64{}
	spans := map[string]int64{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		switch e.Kind {
		case telemetry.KindCount:
			sums[e.Name] += e.Delta
		case telemetry.KindSpan:
			spans[e.Name]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	s := res.Stats
	for name, want := range map[string]int{
		"rx.frames":           s.Frames,
		"rx.symbols_in":       s.SymbolsIn,
		"rx.symbols_data":     s.DataSymbolsIn,
		"rx.packets_data":     s.DataPackets,
		"rx.deframe_discards": s.DiscardedPackets,
		"rx.rs_decode_ok":     s.BlocksOK,
		"rx.rs_decode_fail":   s.BlocksFailed,
	} {
		if sums[name] != int64(want) {
			t.Errorf("trace sum %s = %d, RxStats says %d", name, sums[name], want)
		}
	}
	if s.BlocksOK == 0 {
		t.Error("run decoded nothing; trace consistency is vacuous")
	}
	// The trace's sums must also agree with the run's final snapshot.
	for name, v := range res.Telemetry.Counters {
		if sums[name] != v {
			t.Errorf("trace sum %s = %d, snapshot says %d", name, sums[name], v)
		}
	}
	// Stage spans fire once per frame; the run-level span exactly once.
	if spans["rx.frame"] != int64(s.Frames) {
		t.Errorf("rx.frame spans %d, frames %d", spans["rx.frame"], s.Frames)
	}
	if spans["metrics.run"] != 1 {
		t.Errorf("metrics.run spans = %d, want 1", spans["metrics.run"])
	}
	for _, name := range []string{"metrics.build_waveform", "metrics.capture", "metrics.decode", "tx.encode", "camera.capture_video"} {
		if spans[name] == 0 {
			t.Errorf("trace has no %s span", name)
		}
	}
}

// TestRunLinkHealthConsistent is the link-quality acceptance check: on
// a clean 16-CSK Nexus 5 link the linkstats ground-truth SER must
// agree with the run's own SER measurement (both compare recovered
// blocks' raw symbols against the transmitted stream), and the health
// snapshot must be consistent with the packet ledger — a link whose
// blocks mostly recover cannot report a high SER or a sick score.
func TestRunLinkHealthConsistent(t *testing.T) {
	res, err := Run(LinkParams{
		Order: csk.CSK16, SymbolRate: 3000, Profile: camera.Nexus5(),
		WhiteFraction: 0.2, Duration: 3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := res.Health
	if h.SymbolsCompared == 0 {
		t.Fatalf("no ground-truth symbols compared: %+v", h)
	}
	if diff := h.SER - res.SER; diff < -0.01 || diff > 0.01 {
		t.Errorf("linkstats SER %.4f disagrees with metrics SER %.4f", h.SER, res.SER)
	}
	if int(h.BlocksOK) != res.Stats.BlocksOK || int(h.BlocksFailed) != res.Stats.BlocksFailed {
		t.Errorf("health block ledger %d/%d != receiver stats %d/%d",
			h.BlocksOK, h.BlocksFailed, res.Stats.BlocksOK, res.Stats.BlocksFailed)
	}
	// SER consistent with packet success: RS corrects up to its parity
	// budget, so the block success rate bounds the plausible SER — a
	// mostly-recovering link must sit well under the RS correction
	// ceiling, and its BER cannot exceed its SER (multiple bit flips
	// per wrong symbol are impossible to exceed symbol flips).
	okRate := float64(res.Stats.BlocksOK) / float64(res.Stats.BlocksOK+res.Stats.BlocksFailed)
	if okRate > 0.6 && h.SER > 0.15 {
		t.Errorf("SER %.4f implausible with %.0f%% block success", h.SER, okRate*100)
	}
	if h.BER > h.SER {
		t.Errorf("BER %.4f exceeds SER %.4f", h.BER, h.SER)
	}
	if okRate > 0.6 && (h.Score < 0.3 || !h.Calibrated) {
		t.Errorf("healthy link reports sick snapshot: score %.3f reason %s calibrated=%v",
			h.Score, h.Reason, h.Calibrated)
	}
	if h.MeanMargin <= 0 {
		t.Errorf("no classification margin recorded: %+v", h)
	}
	if res.LinkReport.RSLoad.Count == 0 {
		t.Error("no RS correction-load samples recorded")
	}
}

// TestRunSizingPaths checks the two RS sizing paths stay distinct and
// each one is exercised exactly as selected: the codes differ in k
// (erasure-aware sizing provisions half the parity), so with everything
// else fixed the two runs must both carry data yet report different
// goodput quanta.
func TestRunSizingPaths(t *testing.T) {
	base := LinkParams{
		Order: csk.CSK8, SymbolRate: 2000, Profile: camera.Nexus5(),
		WhiteFraction: 0.2, Duration: 2, Seed: 9,
	}
	paper, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	erasure := base
	erasure.ErasureSizing = true
	eras, err := Run(erasure)
	if err != nil {
		t.Fatal(err)
	}
	if paper.GoodputBps <= 0 || eras.GoodputBps <= 0 {
		t.Fatalf("dead link: paper %v, erasure %v", paper.GoodputBps, eras.GoodputBps)
	}
	if eras.GoodputBps == paper.GoodputBps {
		t.Errorf("sizing paths produced identical goodput %v; erasure path no longer selects a different code",
			eras.GoodputBps)
	}
}

func TestCalibrationAblation(t *testing.T) {
	// Factory references on a device with a strong color matrix must
	// not beat calibrated references.
	base := LinkParams{
		Order: csk.CSK32, SymbolRate: 2000, Profile: camera.Nexus5(),
		WhiteFraction: 0.2, Duration: 3, Seed: 6,
	}
	calibrated, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	factory := base
	factory.UseFactoryRefs = true
	uncal, err := Run(factory)
	if err != nil {
		t.Fatal(err)
	}
	// The device's tone curve and color matrix displace the received
	// constellation so far that factory matching collapses: almost
	// nothing decodes. Calibration restores the link (§6).
	if uncal.GoodputBps >= calibrated.GoodputBps/4 {
		t.Errorf("factory-refs goodput %v not far below calibrated %v",
			uncal.GoodputBps, calibrated.GoodputBps)
	}
	if calibrated.GoodputBps <= 0 {
		t.Error("calibrated link dead")
	}
}

func TestRunPowerOption(t *testing.T) {
	// Higher LED power at fixed distance must not hurt the link at the
	// reference distance (auto-exposure compensates).
	base := LinkParams{
		Order: csk.CSK8, SymbolRate: 2000, Profile: camera.Nexus5(),
		WhiteFraction: 0.2, Duration: 1, Seed: 5,
	}
	one, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	boosted := base
	boosted.Power = 4
	four, err := Run(boosted)
	if err != nil {
		t.Fatal(err)
	}
	if four.SymbolsPerSecond < one.SymbolsPerSecond*0.9 {
		t.Errorf("4x power degraded reception: %v vs %v symbols/s",
			four.SymbolsPerSecond, one.SymbolsPerSecond)
	}
}

func TestRunReceiverOptimizedOption(t *testing.T) {
	// The flag must produce a working link end to end (both sides pick
	// the same redesigned constellation).
	res, err := Run(LinkParams{
		Order: csk.CSK16, SymbolRate: 2000, Profile: camera.Ideal(),
		WhiteFraction: 0.2, Duration: 2, Seed: 5,
		ErasureSizing: true, ReceiverOptimized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GoodputBps <= 0 {
		t.Errorf("receiver-optimized link dead: %+v", res.Stats)
	}
}

func TestRunNoJitterOption(t *testing.T) {
	// Negative DriveJitter disables the LED driver noise. On the ideal
	// camera the only residual error source is inter-symbol
	// interference where a near-white constellation point sits next to
	// a white illumination slot (their bands can merge); that floor is
	// small. With the default jitter the same cell runs several times
	// higher.
	jitterFree, err := Run(LinkParams{
		Order: csk.CSK32, SymbolRate: 2000, Profile: camera.Ideal(),
		WhiteFraction: 0.2, Duration: 2, Seed: 5,
		ErasureSizing: true, DriveJitter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if jitterFree.SER > 0.03 {
		t.Errorf("jitter-free ideal link SER %v above the ISI floor", jitterFree.SER)
	}
	if jitterFree.GoodputBps <= 0 {
		t.Error("jitter-free ideal link dead")
	}
	jittered, err := Run(LinkParams{
		Order: csk.CSK32, SymbolRate: 2000, Profile: camera.Ideal(),
		WhiteFraction: 0.2, Duration: 2, Seed: 5,
		ErasureSizing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if jittered.SER <= jitterFree.SER {
		t.Errorf("driver jitter did not raise SER: %v vs %v", jittered.SER, jitterFree.SER)
	}
}
