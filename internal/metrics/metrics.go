// Package metrics runs instrumented ColorBars links and measures the
// paper's three evaluation quantities (§8): symbol error rate,
// throughput and goodput, plus the inter-frame loss ratio of Table 1.
//
// Measurement definitions follow the paper:
//
//   - SER: fraction of observed data symbols demodulated to the wrong
//     constellation index (pre-RS). Ground truth comes from
//     transmitting a single known RS codeword repeatedly.
//   - Throughput: raw received data bits per second — observed color
//     symbols (excluding white illumination symbols) × C bits, with no
//     error correction.
//   - Goodput: correctly recovered data bits per second — RS-decoded
//     blocks × k bytes.
package metrics

import (
	"bytes"
	"fmt"
	"math/rand"

	"colorbars/internal/camera"
	"colorbars/internal/channel"
	"colorbars/internal/cie"
	"colorbars/internal/coding"
	"colorbars/internal/csk"
	"colorbars/internal/fault"
	"colorbars/internal/linkadapt"
	"colorbars/internal/linkstats"
	"colorbars/internal/modem"
	"colorbars/internal/packet"
	"colorbars/internal/pipeline"
	"colorbars/internal/rs"
	"colorbars/internal/telemetry"
)

// DefaultDriveJitter is the tri-LED driver's per-symbol intensity
// jitter used in all measured links (see led.Config.DriveJitter): the
// paper's off-the-shelf RGB LED on BeagleBone PWM pins is not an ideal
// source, and this error floor is what separates the dense 16/32-CSK
// constellations from the robust 4/8-CSK ones in Fig 9.
const DefaultDriveJitter = 0.10

// resolvePower maps the LinkParams convention (0 = nominal single
// LED).
func resolvePower(p float64) float64 {
	if p == 0 {
		return 1
	}
	return p
}

// resolveJitter maps the LinkParams convention (0 = default, negative
// = none) onto the LED config.
func resolveJitter(j float64) float64 {
	switch {
	case j == 0:
		return DefaultDriveJitter
	case j < 0:
		return 0
	}
	return j
}

// LinkParams describes one measured link configuration.
type LinkParams struct {
	// Order is the CSK constellation order.
	Order csk.Order
	// SymbolRate is the LED symbol frequency in Hz.
	SymbolRate float64
	// Profile is the receiving camera device.
	Profile camera.Profile
	// WhiteFraction is the white illumination fraction (1 − α_S).
	WhiteFraction float64
	// Duration is the measured capture time in seconds.
	Duration float64
	// Seed drives all randomness (payload, sensor noise).
	Seed int64
	// Channel optionally overrides the optical path; zero value uses
	// channel.DefaultConfig().
	Channel channel.Config
	// UseFactoryRefs disables transmitter-assisted calibration
	// (ablation for §6).
	UseFactoryRefs bool
	// NoErasureDecoding disables gap-position erasure hints (ablation
	// for §5).
	NoErasureDecoding bool
	// DisableEqualizer ablates the receiver's online channel equalizer
	// (modem.RxConfig.DisableEqualizer) — the baseline for the
	// dense-constellation experiments, where the unequalized decoder
	// collapses under AWB and ambient drift.
	DisableEqualizer bool
	// CalibrationEvery overrides the calibration packet interval in
	// data packets (0 picks the default that matches the paper's ~5
	// calibration packets per second).
	CalibrationEvery int
	// ErasureSizing selects the erasure-aware RS sizing instead of the
	// paper's §5 rule (see coding.LinkCodeErasure).
	ErasureSizing bool
	// DriveJitter overrides the LED driver jitter (0 selects
	// DefaultDriveJitter; negative disables jitter).
	DriveJitter float64
	// ReceiverOptimized uses the receiver-plane constellation design
	// on both ends (the paper's §10 future work).
	ReceiverOptimized bool
	// Power scales LED radiance; 0 selects 1 (the paper's low-lumen
	// single tri-LED). Larger values model tri-LED arrays (the
	// paper's §10 future work for longer range).
	Power float64
	// Fault, when non-empty, runs the link under the deterministic
	// fault-injection layer (internal/fault): the schedule's optical
	// impairments corrupt Mean samples and the frame stream between
	// capture and decode. All fault randomness derives from Seed, so
	// the run stays reproducible.
	Fault fault.Schedule
	// SelfHeal tunes the receiver's resync/recalibration thresholds
	// (zero value = defaults, Disable turns the machinery off — the
	// ablation for the fault-recovery experiments).
	SelfHeal modem.SelfHealConfig
	// Workers decodes through the concurrent pipeline
	// (internal/pipeline) with that many analysis workers instead of
	// the serial receiver. The pipeline's Block output is byte-identical
	// to the serial path, so every measured quantity is unchanged —
	// only wall-clock decode time scales. Zero keeps the serial path.
	Workers int
	// Telemetry receives the whole run's spans and counters
	// (transmitter, camera, receiver, and the metrics.* phases). Nil
	// creates a per-run child of telemetry.Process(), so every run
	// rolls up into the process-level registry the cmd tools expose
	// via -telemetry-addr while LinkResult stays per-run exact.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, is attached to the run's registry as its
	// event sink: the run records a structured JSONL-able trace of
	// every pipeline stage and counter increment — *why* blocks
	// failed, not just how many.
	Trace telemetry.TraceSink
	// LinkStats optionally supplies the run's link-quality collector
	// (so a caller can Publish it at /debug/link while the run is
	// live). Nil creates a private one; either way Run installs the
	// transmitted symbol stream as SER/BER ground truth and the
	// result carries the end-of-run LinkHealth and Report.
	LinkStats *linkstats.Collector
	// Adaptive replaces the fixed Order/SymbolRate/WhiteFraction link
	// with the closed-loop link-adaptation session (internal/linkadapt,
	// DESIGN.md §13): the controller walks the default modulation
	// ladder in response to live link health, so those three fields are
	// ignored. Only GoodputBps, Stats, Health, LinkReport and Telemetry
	// are populated — SER and throughput need a fixed ground-truth
	// symbol stream, which a link that retunes mid-run does not have.
	Adaptive bool
}

// LinkResult holds the measured quantities.
type LinkResult struct {
	// SER is the symbol error rate over observed symbols.
	SER float64
	// SymbolsCompared is the SER sample size.
	SymbolsCompared int
	// ThroughputBps is raw received data bits per second.
	ThroughputBps float64
	// GoodputBps is recovered (post-RS) data bits per second.
	GoodputBps float64
	// SymbolsPerSecond is the rate of all received symbols (Table 1).
	SymbolsPerSecond float64
	// MeasuredLossRatio is 1 − received/transmitted symbols (Table 1).
	MeasuredLossRatio float64
	// Stats carries the receiver's raw counters.
	Stats modem.RxStats
	// Telemetry is the run's full metric snapshot: every counter of
	// Stats plus the per-stage failure counters and latency spans.
	Telemetry telemetry.Snapshot
	// Health is the end-of-run link-quality snapshot — ground-truth
	// SER/BER, classification margins, RS correction load, the scalar
	// health score (see internal/linkstats).
	Health linkstats.LinkHealth
	// LinkReport is the full link report behind Health, including the
	// margin and parity-load histograms.
	LinkReport linkstats.Report
	// EqConfidence is the receiver's end-of-run channel-equalizer
	// confidence in [0, 1]; EqActive reports whether the equalizer was
	// enabled and anchored at all (always false under DisableEqualizer
	// and in adaptive runs, whose receiver retunes mid-run).
	EqConfidence float64
	EqActive     bool
}

// Run measures one link configuration end to end: it builds a
// paper-sized RS code, transmits one known codeword in a repeating
// broadcast, captures video with the device profile, decodes it, and
// scores the result.
func Run(p LinkParams) (LinkResult, error) {
	if p.Duration <= 0 {
		return LinkResult{}, fmt.Errorf("metrics: duration %v must be positive", p.Duration)
	}
	if p.Adaptive {
		return runAdaptive(p)
	}
	tel := p.Telemetry
	if tel == nil {
		tel = telemetry.Process().NewChild()
	}
	if p.Trace != nil {
		tel.SetSink(p.Trace)
	}
	run := tel.StartSpan("metrics.run")
	defer run.End()

	params := coding.Params{
		SymbolRate:   p.SymbolRate,
		FrameRate:    p.Profile.FrameRate,
		LossRatio:    p.Profile.LossRatio(),
		Order:        p.Order,
		DataFraction: 1 - p.WhiteFraction,
	}
	// Each sizing path is checked exactly once (the erasure path used
	// to overwrite the LinkCode result/err pair it had already
	// computed).
	var code *rs.Code
	var err error
	if p.ErasureSizing {
		code, err = params.LinkCodeErasure()
	} else {
		code, err = params.LinkCode()
	}
	if err != nil {
		return LinkResult{}, err
	}
	calEvery := p.CalibrationEvery
	if calEvery == 0 {
		// ≈5 calibration packets per second: one every F/5 data
		// packets at ~one packet per frame.
		calEvery = int(p.Profile.FrameRate/5 + 0.5)
		if calEvery < 1 {
			calEvery = 1
		}
	}
	tx, err := modem.NewTransmitter(modem.TxConfig{
		Order:             p.Order,
		SymbolRate:        p.SymbolRate,
		WhiteFraction:     p.WhiteFraction,
		Power:             resolvePower(p.Power),
		Triangle:          cie.SRGBTriangle,
		CalibrationEvery:  calEvery,
		Code:              code,
		DriveJitter:       resolveJitter(p.DriveJitter),
		Seed:              p.Seed,
		ReceiverOptimized: p.ReceiverOptimized,
		Telemetry:         tel,
	})
	if err != nil {
		return LinkResult{}, err
	}
	ls := p.LinkStats
	if ls == nil {
		ls = linkstats.NewCollector(linkstats.Config{
			Points:        int(p.Order),
			BitsPerSymbol: p.Order.BitsPerSymbol(),
			Telemetry:     tel,
		})
	}
	rx, err := modem.NewReceiver(modem.RxConfig{
		Order:                p.Order,
		SymbolRate:           p.SymbolRate,
		WhiteFraction:        p.WhiteFraction,
		Code:                 code,
		UseFactoryReferences: p.UseFactoryRefs,
		NoErasureDecoding:    p.NoErasureDecoding,
		DisableEqualizer:     p.DisableEqualizer,
		ReceiverOptimized:    p.ReceiverOptimized,
		SelfHeal:             p.SelfHeal,
		Telemetry:            tel,
		LinkStats:            ls,
	})
	if err != nil {
		return LinkResult{}, err
	}

	// A known k-byte block repeated 4× → every data packet carries the
	// same codeword (SER ground truth), while the 4-packet message
	// cycle amortizes the transmitter's de-phasing pads.
	rng := rand.New(rand.NewSource(p.Seed))
	block := make([]byte, code.K())
	rng.Read(block)
	// The repeating waveform restarts the calibration cadence at every
	// message repeat, so an explicit CalibrationEvery beyond the
	// message's packet count would silently tighten back to it: scale
	// the message so the stretched interval actually elapses on air.
	// Only an explicit override stretches — the default stays at 4
	// packets so every recorded default-parameter result is unchanged.
	nBlocks := 4
	if p.CalibrationEvery > nBlocks {
		nBlocks = p.CalibrationEvery
	}
	msg := bytes.Repeat(block, nBlocks)
	cw, err := code.Encode(append([]byte(nil), block...))
	if err != nil {
		return LinkResult{}, err
	}
	// On-air symbols carry the whitened codeword (see packet.Scramble).
	truth := p.Order.Pack(packet.Scramble(cw))
	// The same stream is the link-quality layer's SER/BER ground truth.
	ls.SetTruth(truth)

	sp := run.StartChild("metrics.build_waveform")
	w, err := tx.BuildWaveformRepeating(msg, p.Duration+0.5)
	sp.End()
	if err != nil {
		return LinkResult{}, err
	}
	chCfg := p.Channel
	if chCfg == (channel.Config{}) {
		chCfg = channel.DefaultConfig()
	}
	ch, err := channel.New(chCfg, w)
	if err != nil {
		return LinkResult{}, err
	}

	var src camera.Source = ch
	var inj *fault.Injector
	if !p.Fault.Empty() {
		inj = fault.New(fault.Config{Seed: p.Seed, Schedule: p.Fault, Telemetry: tel})
		src = inj.WrapSource(ch)
	}

	cam := camera.New(p.Profile, p.Seed)
	cam.Instrument(tel)
	nFrames := int(p.Duration * p.Profile.FrameRate)

	sp = run.StartChild("metrics.capture")
	frames := cam.CaptureVideo(src, 0, nFrames)
	sp.End()
	if inj != nil {
		frames = inj.FilterFrames(frames)
	}

	sp = run.StartChild("metrics.decode")
	var blocks []modem.Block
	if p.Workers > 0 {
		blocks, err = pipeline.DecodeAll(pipeline.Config{Workers: p.Workers, Telemetry: tel}, "metrics", rx, frames)
		if err != nil {
			return LinkResult{}, err
		}
	} else {
		for _, f := range frames {
			blocks = append(blocks, rx.ProcessFrame(f)...)
		}
		blocks = append(blocks, rx.Flush()...)
	}
	sp.End()

	res := score(p, code.K(), truth, blocks, rx.Stats(), block)
	res.Telemetry = tel.Snapshot()
	res.Health = ls.Health()
	res.LinkReport = ls.Report("")
	res.EqConfidence, res.EqActive = rx.EqualizerConfidence()
	return res, nil
}

// runAdaptive measures the closed-loop adaptive link: the linkadapt
// session owns the whole modem loop (it must — the operating point
// changes mid-run), and its result maps onto the subset of LinkResult
// that is well-defined without a fixed ground-truth stream.
func runAdaptive(p LinkParams) (LinkResult, error) {
	tel := p.Telemetry
	if tel == nil {
		tel = telemetry.Process().NewChild()
	}
	if p.Trace != nil {
		tel.SetSink(p.Trace)
	}
	sr, err := linkadapt.RunSession(linkadapt.SessionParams{
		Seed:      p.Seed,
		Duration:  p.Duration,
		Profile:   p.Profile,
		Channel:   p.Channel,
		Schedule:  p.Fault,
		Telemetry: tel,
	})
	if err != nil {
		return LinkResult{}, err
	}
	return LinkResult{
		GoodputBps: sr.GoodputBPS,
		Telemetry:  sr.Snapshot,
		Health:     sr.Health,
		LinkReport: sr.Report,
	}, nil
}

// score computes the result metrics from decoded blocks.
func score(p LinkParams, k int, truth []int, blocks []modem.Block, stats modem.RxStats, msg []byte) LinkResult {
	res := LinkResult{Stats: stats}
	var symErrors, symCompared int
	var recoveredBits float64
	for _, b := range blocks {
		if len(b.RawSymbols) == len(truth) {
			e, c := serCount(b, truth)
			symErrors += e
			symCompared += c
		}
		if b.Recovered && string(b.Data) == string(msg) {
			recoveredBits += float64(8 * k)
		}
	}
	if symCompared == 0 {
		// Nothing decoded (very high error regime): fall back to the
		// alignment-certain prefixes of failed blocks so the SER is
		// measured rather than vacuously zero.
		for _, b := range blocks {
			if len(b.RawSymbols) != len(truth) {
				continue
			}
			for i, s := range b.RawSymbols {
				if s < 0 {
					break // gap reached; alignment uncertain beyond
				}
				symCompared++
				if s != truth[i] {
					symErrors++
				}
			}
		}
	}
	res.SymbolsCompared = symCompared
	if symCompared > 0 {
		res.SER = float64(symErrors) / float64(symCompared)
	}
	c := float64(p.Order.BitsPerSymbol())
	res.ThroughputBps = c * float64(stats.DataSymbolsIn) / p.Duration
	res.GoodputBps = recoveredBits / p.Duration
	res.SymbolsPerSecond = float64(stats.SymbolsIn) / p.Duration
	transmitted := p.SymbolRate * p.Duration
	if transmitted > 0 {
		res.MeasuredLossRatio = 1 - float64(stats.SymbolsIn)/transmitted
	}
	return res
}

// serCount compares one block's matched symbols against the known
// transmitted sequence, counting pre-Reed-Solomon demodulation errors.
// Only blocks whose RS decode succeeded are counted: for those the
// symbol stream's alignment is verified, so every mismatch is a true
// color-matching error (exactly what Fig 9 measures — RS corrects the
// errors afterwards, but the raw matched symbols still show them).
// Blocks whose framing failed are excluded because their symbol
// streams may be shifted by band-counting artifacts, which would
// charge framing slips as color errors.
func serCount(b modem.Block, truth []int) (errors, compared int) {
	if !b.Recovered {
		return 0, 0
	}
	for i, s := range b.RawSymbols {
		if s < 0 {
			continue
		}
		compared++
		if s != truth[i] {
			errors++
		}
	}
	return errors, compared
}
