// Package camera simulates the CMOS rolling-shutter image sensors
// that serve as ColorBars receivers. This is the central hardware
// substitution of the reproduction (see DESIGN.md): the paper used
// physical Nexus 5 and iPhone 5S phones; here each device is a
// Profile whose timing, color response and noise are modeled so that
// the measurable artifacts the paper reports — inter-frame loss
// ratios, band widths, device color biases, exposure/ISO color shifts,
// and non-uniform frame brightness — all emerge from the simulation.
//
// Rolling shutter model: the sensor exposes one scanline (row) at a
// time. Row r of a frame starting at t0 integrates the incident light
// over [t0 + r·RowTime, t0 + r·RowTime + exposure]. After the last row
// is read out, the sensor is idle for the inter-frame gap until the
// next frame period begins; light arriving during the gap is lost
// (paper §5, Fig 2(a)).
//
// Pixel model, in order:
//
//	radiance  = waveform mean over the row's exposure window
//	sensed    = ColorMatrix · radiance            (color filter diversity, §6.1)
//	scaled    = sensed · exposure · ISO · Sensitivity
//	blurred   = scaled convolved across rows      (lens point-spread function)
//	vignetted = blurred · falloff(row, col)       (non-uniform brightness, §7)
//	noisy     = vignetted + shot noise + read noise · ISO
//	toned     = clamp(noisy)^ToneGamma            (saturation + device tone curve, §6)
//	pixel     = quantize(toned)                   (ADC)
//
// The tone curve and the ADC run as one threshold-table lookup that
// reproduces the power function and rounding bit for bit (DESIGN.md
// §16).
//
// Auto exposure/ISO (§6.2) is a deterministic feedback loop that
// retargets the mean pixel level each frame, mimicking the phones'
// automatic adjustment the paper left enabled during evaluation.
package camera

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"colorbars/internal/colorspace"
	"colorbars/internal/telemetry"
)

// Source is any radiance field the camera can image: something that
// can report its mean linear-RGB radiance over a time interval.
// *led.Waveform satisfies it directly; internal/channel wraps one with
// propagation effects.
type Source interface {
	// Mean returns the average radiance over [t0, t1] (seconds).
	Mean(t0, t1 float64) colorspace.RGB
}

// Profile describes one camera device.
type Profile struct {
	// Name identifies the device ("Nexus 5", "iPhone 5S", ...).
	Name string
	// Rows is the number of scanlines per frame (the resolution along
	// the rolling-shutter axis; bands form across it).
	Rows int
	// Cols is the number of column samples simulated per row. Real
	// sensors have thousands of columns that all see the same LED at
	// slightly different vignetting; a few dozen samples preserve the
	// statistics at a fraction of the cost.
	Cols int
	// FrameRate is frames per second.
	FrameRate float64
	// RowTime is the scanline readout period in seconds. Rows·RowTime
	// is the active capture time; the remainder of the frame period is
	// the inter-frame gap.
	RowTime float64
	// ColorMatrix maps true linear RGB radiance to the sensor's
	// RGB response (row-stochastic ⇒ white is preserved).
	ColorMatrix [3][3]float64
	// Sensitivity converts radiance·seconds·ISO to pixel level.
	Sensitivity float64
	// ReadNoise is the standard deviation of signal-independent noise
	// at ISO 100, in normalized pixel units.
	ReadNoise float64
	// ShotNoise scales signal-dependent (photon) noise:
	// σ = ShotNoise·sqrt(signal).
	ShotNoise float64
	// Vignetting strength: 0 = uniform, larger = stronger center
	// brightening (1/(1+v·r²)² falloff, r = normalized radius).
	Vignetting float64
	// QuantBits is the ADC depth (8 for phone video paths).
	QuantBits int
	// FrameJitter is the standard deviation of frame-start timing
	// noise, as a fraction of the frame period. Real camera pipelines
	// drift by a fraction of a percent; the jitter also breaks the
	// phase lock that would otherwise make packet losses periodic.
	FrameJitter float64
	// OpticalBlurRows is the standard deviation, in scanlines, of the
	// lens point-spread function along the rolling-shutter axis. Lens
	// blur mixes light between neighbouring bands regardless of
	// exposure time, and is the inter-symbol-interference floor that
	// makes dense constellations fail as bands narrow (paper §8,
	// Fig 9). At most MaxOpticalBlurRows.
	OpticalBlurRows float64
	// ToneGamma applies the device's tone curve v^γ to each channel
	// after the color matrix. Phone imaging pipelines tone-map their
	// output; the curve is nonlinear, so it warps the received
	// constellation in a way no single reference set predicts — the
	// device-specific distortion transmitter-assisted calibration
	// absorbs (§6). 1 means no tone mapping. Gray stays gray for any
	// γ, so white symbols are unaffected.
	ToneGamma float64

	// Auto-exposure parameters.
	TargetLevel  float64 // desired mean pixel level
	MinExposure  float64 // seconds
	MaxExposure  float64 // seconds; must be < frame period
	MinISO       float64
	MaxISO       float64
	InitExposure float64
	InitISO      float64
}

// MaxOpticalBlurRows caps Profile.OpticalBlurRows. Capture's blur
// kernel spans ±3σ rows, so the cap bounds it at 601 taps (4.7 KB) and
// its cost at 601 multiply-adds per row. A σ of 100 scanlines already
// smears a 1 kHz symbol band (127 Nexus 5 rows, 52 iPhone 5S rows)
// across its neighbours, far past any decodable link; the built-in
// profiles use 2.2 and 3.
const MaxOpticalBlurRows = 100

// Validate checks profile consistency. Every float field must be
// finite: a NaN or ±Inf one makes Capture emit NaN or ±Inf pixels, and
// a NaN exposure makes it index out of range.
func (p Profile) Validate() error {
	if p.Rows <= 0 || p.Cols <= 0 {
		return fmt.Errorf("camera: non-positive geometry %dx%d", p.Rows, p.Cols)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"frame rate", p.FrameRate}, {"row time", p.RowTime},
		{"sensitivity", p.Sensitivity}, {"read noise", p.ReadNoise},
		{"shot noise", p.ShotNoise}, {"vignetting", p.Vignetting},
		{"frame jitter", p.FrameJitter}, {"optical blur", p.OpticalBlurRows},
		{"tone gamma", p.ToneGamma}, {"target level", p.TargetLevel},
		{"min exposure", p.MinExposure}, {"max exposure", p.MaxExposure},
		{"min ISO", p.MinISO}, {"max ISO", p.MaxISO},
		{"initial exposure", p.InitExposure}, {"initial ISO", p.InitISO},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("camera: %s %v", f.name, f.v)
		}
	}
	for i, row := range p.ColorMatrix {
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("camera: color matrix [%d][%d] %v", i, j, v)
			}
		}
	}
	if p.FrameRate <= 0 {
		return fmt.Errorf("camera: frame rate %v", p.FrameRate)
	}
	if p.RowTime <= 0 {
		return fmt.Errorf("camera: row time %v", p.RowTime)
	}
	if active := float64(p.Rows) * p.RowTime; active >= 1/p.FrameRate {
		return fmt.Errorf("camera: active time %v s exceeds frame period %v s", active, 1/p.FrameRate)
	}
	if p.Sensitivity <= 0 {
		return fmt.Errorf("camera: sensitivity %v", p.Sensitivity)
	}
	if p.QuantBits < 1 || p.QuantBits > 16 {
		return fmt.Errorf("camera: quant bits %d", p.QuantBits)
	}
	// A negative γ inverts the tone curve and sends dark pixels to
	// +Inf (and the tone table needs an increasing curve); a negative
	// vignetting strength divides by zero at some radius. Either makes
	// Capture emit NaN or ±Inf pixels.
	if p.ToneGamma < 0 {
		return fmt.Errorf("camera: tone gamma %v", p.ToneGamma)
	}
	if p.Vignetting < 0 {
		return fmt.Errorf("camera: vignetting %v", p.Vignetting)
	}
	// An unbounded σ asks for an unbounded blur kernel: at 1e9 rows,
	// 48 GB.
	if p.OpticalBlurRows > MaxOpticalBlurRows {
		return fmt.Errorf("camera: optical blur %v rows above %v", p.OpticalBlurRows, MaxOpticalBlurRows)
	}
	if p.MinExposure <= 0 || p.MaxExposure < p.MinExposure {
		return fmt.Errorf("camera: exposure range [%v, %v]", p.MinExposure, p.MaxExposure)
	}
	if p.MaxExposure >= p.FramePeriod() {
		return fmt.Errorf("camera: max exposure %v s not below frame period %v s", p.MaxExposure, p.FramePeriod())
	}
	if p.MinISO <= 0 || p.MaxISO < p.MinISO {
		return fmt.Errorf("camera: ISO range [%v, %v]", p.MinISO, p.MaxISO)
	}
	// Auto-exposure starts from the initial settings and scales them
	// by the target level: an ISO of 0 or a negative target makes the
	// next exposure NaN, which Capture indexes with.
	if p.InitExposure < p.MinExposure || p.InitExposure > p.MaxExposure {
		return fmt.Errorf("camera: initial exposure %v outside [%v, %v]", p.InitExposure, p.MinExposure, p.MaxExposure)
	}
	if p.InitISO < p.MinISO || p.InitISO > p.MaxISO {
		return fmt.Errorf("camera: initial ISO %v outside [%v, %v]", p.InitISO, p.MinISO, p.MaxISO)
	}
	if p.TargetLevel < 0 {
		return fmt.Errorf("camera: target level %v", p.TargetLevel)
	}
	return nil
}

// FramePeriod returns the time between frame starts.
func (p Profile) FramePeriod() float64 { return 1 / p.FrameRate }

// ActiveTime returns the portion of a frame period spent exposing
// scanlines.
func (p Profile) ActiveTime() float64 { return float64(p.Rows) * p.RowTime }

// GapTime returns the inter-frame gap duration.
func (p Profile) GapTime() float64 { return p.FramePeriod() - p.ActiveTime() }

// LossRatio returns the inter-frame loss ratio l = gap / period, the
// fraction of transmitted symbols the camera cannot see (Table 1).
func (p Profile) LossRatio() float64 { return p.GapTime() / p.FramePeriod() }

// Nexus5 models the paper's Android receiver: 3264 scanlines (the
// long axis of its 2448×3264 stills pipeline) at 30 fps with a
// measured inter-frame loss ratio of 0.2312. Its color filter response
// deviates more from the true colors than the iPhone's (Fig 6(a), §8:
// "iPhone 5S better captures the true color"), and its noise floor is
// slightly higher, which together produce its higher SER.
func Nexus5() Profile {
	return Profile{
		Name:      "Nexus 5",
		Rows:      3264,
		Cols:      24,
		FrameRate: 30,
		// Active time = (1 − 0.2312)/30 s over 3264 rows.
		RowTime: (1 - 0.2312) / 30 / 3264,
		// Asymmetric crosstalk rotates hues (not just desaturation),
		// so factory references mis-match and calibration pays off —
		// the behaviour Fig 6(a) shows for this device.
		ColorMatrix: [3][3]float64{
			{0.72, 0.23, 0.05},
			{0.06, 0.74, 0.20},
			{0.17, 0.06, 0.77},
		},
		Sensitivity:     100,
		ReadNoise:       0.012,
		ShotNoise:       0.008,
		Vignetting:      0.45,
		QuantBits:       8,
		FrameJitter:     0.004,
		OpticalBlurRows: 3.0,
		ToneGamma:       0.70,
		TargetLevel:     0.45,
		MinExposure:     50e-6,
		MaxExposure:     8e-3,
		MinISO:          100,
		MaxISO:          1600,
		InitExposure:    1e-4,
		InitISO:         100,
	}
}

// IPhone5S models the paper's iOS receiver: 1080 scanlines at 30 fps
// with a measured inter-frame loss ratio of 0.3727. Its color response
// is closer to the truth (lower SER) but it loses more symbols per
// frame, which caps its throughput below the Nexus 5 (§8).
func IPhone5S() Profile {
	return Profile{
		Name:      "iPhone 5S",
		Rows:      1080,
		Cols:      24,
		FrameRate: 30,
		// Active time = (1 − 0.3727)/30 s over 1080 rows.
		RowTime: (1 - 0.3727) / 30 / 1080,
		ColorMatrix: [3][3]float64{
			{0.90, 0.08, 0.02},
			{0.05, 0.90, 0.05},
			{0.02, 0.08, 0.90},
		},
		Sensitivity:     100,
		ReadNoise:       0.008,
		ShotNoise:       0.006,
		Vignetting:      0.35,
		QuantBits:       8,
		FrameJitter:     0.004,
		OpticalBlurRows: 2.2,
		ToneGamma:       0.85,
		TargetLevel:     0.45,
		MinExposure:     50e-6,
		MaxExposure:     8e-3,
		MinISO:          100,
		MaxISO:          1600,
		InitExposure:    1e-4,
		InitISO:         100,
	}
}

// Ideal returns a noiseless, vignetting-free camera with an identity
// color matrix and fine quantization — the reference receiver used by
// tests to isolate algorithmic behaviour from sensor artifacts.
func Ideal() Profile {
	return Profile{
		Name:      "Ideal",
		Rows:      2000,
		Cols:      8,
		FrameRate: 30,
		RowTime:   (1 - 0.10) / 30 / 2000, // small 10% gap
		ColorMatrix: [3][3]float64{
			{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
		},
		Sensitivity:  100,
		ReadNoise:    0,
		ShotNoise:    0,
		Vignetting:   0,
		QuantBits:    16,
		FrameJitter:  0.004,
		TargetLevel:  0.45,
		MinExposure:  50e-6,
		MaxExposure:  8e-3,
		MinISO:       100,
		MaxISO:       1600,
		InitExposure: 1e-4,
		InitISO:      100,
	}
}

// Profiles returns the built-in device profiles by name.
func Profiles() map[string]Profile {
	return map[string]Profile{
		"nexus5":   Nexus5(),
		"iphone5s": IPhone5S(),
		"ideal":    Ideal(),
	}
}

// Frame is one captured image. Pixels are stored row-major in sensor
// RGB after the color matrix, the device tone curve (ToneGamma) and
// the ADC, normalized to [0, 1].
type Frame struct {
	Rows, Cols int
	Pix        []colorspace.RGB
	// Start is the capture start time (seconds, waveform clock).
	Start float64
	// Exposure and ISO are the settings the frame was captured with.
	Exposure float64
	ISO      float64
	// RowTime is copied from the profile for time reconstruction.
	RowTime float64
}

// At returns the pixel at row r, column c.
func (f *Frame) At(r, c int) colorspace.RGB { return f.Pix[r*f.Cols+c] }

// TimingValid reports whether the frame's RowTime is finite and
// positive and its Exposure finite and non-negative: every frame a
// valid Profile captures, and the timings a receiver can reduce to
// band widths. Frames from outside the process (the ingest wire) are
// checked with it.
func (f *Frame) TimingValid() bool {
	return f.RowTime > 0 && !math.IsInf(f.RowTime, 1) && f.Exposure >= 0 && !math.IsInf(f.Exposure, 1)
}

// RowMean returns the mean pixel of row r — the paper's dimension
// reduction (§7 Step 2), which averages the axis perpendicular to the
// bands to turn the frame into a 1-D color strip.
func (f *Frame) RowMean(r int) colorspace.RGB {
	var s colorspace.RGB
	for c := 0; c < f.Cols; c++ {
		s = s.Add(f.At(r, c))
	}
	return s.Scale(1 / float64(f.Cols))
}

// RowMidTime returns the mid-exposure time of row r.
func (f *Frame) RowMidTime(r int) float64 {
	return f.Start + float64(r)*f.RowTime + f.Exposure/2
}

// MeanLevel returns the mean luma over all pixels, the signal the
// auto-exposure loop regulates.
func (f *Frame) MeanLevel() float64 {
	var s float64
	for _, p := range f.Pix {
		s += p.Luma()
	}
	return s / float64(len(f.Pix))
}

// Camera is a stateful simulated device: it tracks auto-exposure
// state across frames and owns a deterministic noise source.
type Camera struct {
	profile  Profile
	rng      *rand.Rand
	exposure float64
	iso      float64
	manual   bool

	// Readout invariants, fixed by the profile: the squared
	// normalized column offset of each column for vignetting, and the
	// tone-curve-and-ADC table (nil when the tone curve is the
	// identity).
	colDist2 []float64
	tone     *toneTable

	// Telemetry (optional, attached with Instrument): nil fields are
	// inert, so an uninstrumented camera pays only nil checks.
	tel         *telemetry.Registry
	framesCount *telemetry.Counter
	expGauge    *telemetry.Gauge
	isoGauge    *telemetry.Gauge
}

// New returns a camera for the profile with a deterministic noise
// seed. It panics on an invalid profile (profiles are programmer
// configuration, not runtime input).
func New(p Profile, seed int64) *Camera {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	c := &Camera{
		profile:  p,
		rng:      rand.New(rand.NewSource(seed)),
		exposure: p.InitExposure,
		iso:      p.InitISO,
		colDist2: make([]float64, p.Cols),
	}
	for col := range c.colDist2 {
		d := normOffset(col, p.Cols)
		c.colDist2[col] = d * d
	}
	if g := p.ToneGamma; g != 0 && g != 1 {
		c.tone = newToneTable(g, p.QuantBits)
	}
	return c
}

// Profile returns the camera's device profile.
func (c *Camera) Profile() Profile { return c.profile }

// Instrument attaches a telemetry registry: Capture records the
// camera.capture span and camera.frames counter, and the auto-exposure
// state is published as camera.exposure_s / camera.iso gauges.
func (c *Camera) Instrument(t *telemetry.Registry) {
	c.tel = t
	c.framesCount = t.Counter("camera.frames")
	c.expGauge = t.Gauge("camera.exposure_s")
	c.isoGauge = t.Gauge("camera.iso")
}

// Exposure returns the current exposure time in seconds.
func (c *Camera) Exposure() float64 { return c.exposure }

// ISO returns the current ISO setting.
func (c *Camera) ISO() float64 { return c.iso }

// SetManual pins exposure and ISO, disabling the auto loop — used for
// the Fig 6(b)/6(c) sweeps. Values are clamped to the profile range.
func (c *Camera) SetManual(exposure, iso float64) {
	c.manual = true
	c.exposure = clampF(exposure, c.profile.MinExposure, c.profile.MaxExposure)
	c.iso = clampF(iso, c.profile.MinISO, c.profile.MaxISO)
}

// SetAuto re-enables the auto-exposure loop.
func (c *Camera) SetAuto() { c.manual = false }

// Capture exposes one frame against the waveform, starting at time
// start (seconds on the waveform clock), and advances the
// auto-exposure state.
func (c *Camera) Capture(w Source, start float64) *Frame {
	sp := c.tel.StartSpan("camera.capture")
	defer sp.End()
	c.framesCount.Inc()
	p := c.profile
	f := &Frame{
		Rows:     p.Rows,
		Cols:     p.Cols,
		Pix:      make([]colorspace.RGB, p.Rows*p.Cols),
		Start:    start,
		Exposure: c.exposure,
		ISO:      c.iso,
		RowTime:  p.RowTime,
	}
	gain := c.exposure * c.iso * p.Sensitivity
	maxLevel := float64(int(1)<<p.QuantBits - 1)
	// First pass: per-row sensed color (exposure integral through the
	// color matrix), then optical blur across rows. The scratch rows
	// come from a pool: captures run per-frame on hot decode paths and
	// the buffers never escape this function (every element is written
	// before use, so dirty reuse is safe).
	scratch := getRowScratch(p.Rows)
	defer putRowScratch(scratch)
	rowSensed := *scratch
	for r := 0; r < p.Rows; r++ {
		t0 := start + float64(r)*p.RowTime
		radiance := w.Mean(t0, t0+c.exposure)
		rowSensed[r] = applyMatrix(p.ColorMatrix, radiance).Scale(gain)
	}
	if p.OpticalBlurRows > 0 {
		blurred := getRowScratch(p.Rows)
		defer putRowScratch(blurred)
		blurRowsInto(*blurred, rowSensed, p.OpticalBlurRows)
		rowSensed = *blurred
	}
	// Second pass: the per-pixel readout. The vignetting offsets and
	// the noise σ terms are per row, per column or per frame; only
	// the arithmetic that combines them runs per pixel, in the same
	// order as evaluating the whole expression per pixel, so the
	// result is bit-identical to it. One NormFloat64 per channel is
	// drawn in R, G, B order, which fixes the noise stream per seed.
	noisy := p.ShotNoise > 0 || p.ReadNoise > 0
	sigmaRead := p.ReadNoise * (c.iso / 100)
	for r := 0; r < p.Rows; r++ {
		sensed := rowSensed[r]
		dr := normOffset(r, p.Rows)
		rowDist2 := dr * dr
		px := f.Pix[r*p.Cols : (r+1)*p.Cols]
		for col := range px {
			v := sensed
			if p.Vignetting != 0 {
				// Falloff 1/(1+v·r²)² (a standard cos⁴ approximation),
				// r² normalized so the corner is ~1.
				d := 1 + p.Vignetting*((rowDist2+c.colDist2[col])/2)
				v = v.Scale(1 / (d * d))
			}
			if noisy {
				v.R = c.noise(v.R, sigmaRead)
				v.G = c.noise(v.G, sigmaRead)
				v.B = c.noise(v.B, sigmaRead)
			}
			v = v.Clamp()
			if c.tone != nil {
				v.R = c.tone.quantize(v.R)
				v.G = c.tone.quantize(v.G)
				v.B = c.tone.quantize(v.B)
			} else {
				v.R = math.Round(v.R*maxLevel) / maxLevel
				v.G = math.Round(v.G*maxLevel) / maxLevel
				v.B = math.Round(v.B*maxLevel) / maxLevel
			}
			px[col] = v
		}
	}
	if !c.manual {
		c.autoExpose(f)
	}
	c.expGauge.Set(c.exposure)
	c.isoGauge.Set(c.iso)
	return f
}

// CaptureVideo captures n consecutive frames at the profile's frame
// rate (plus the profile's timing jitter). Light during the
// inter-frame gaps is, by construction, never sampled.
func (c *Camera) CaptureVideo(w Source, start float64, n int) []*Frame {
	sp := c.tel.StartSpan("camera.capture_video")
	defer sp.End()
	frames := make([]*Frame, 0, n)
	period := c.profile.FramePeriod()
	maxJitter := c.profile.GapTime() * 0.45 // keep frames non-overlapping
	for i := 0; i < n; i++ {
		t := start + float64(i)*period
		if c.profile.FrameJitter > 0 {
			j := c.rng.NormFloat64() * c.profile.FrameJitter * period
			if j > maxJitter {
				j = maxJitter
			}
			if j < -maxJitter {
				j = -maxJitter
			}
			t += j
		}
		frames = append(frames, c.Capture(w, t))
	}
	return frames
}

// autoExpose retargets exposure·ISO so the next frame's mean level
// approaches TargetLevel, preferring exposure changes and raising ISO
// only when the exposure range is exhausted — the same policy phone
// camera pipelines follow.
func (c *Camera) autoExpose(f *Frame) {
	p := c.profile
	level := f.MeanLevel()
	if level < 1e-6 {
		level = 1e-6
	}
	ratio := p.TargetLevel / level
	// Damped correction to avoid oscillation, like real AE loops.
	ratio = math.Pow(ratio, 0.7)
	total := c.exposure * c.iso * ratio
	exp := clampF(total/c.iso, p.MinExposure, p.MaxExposure)
	iso := clampF(total/exp, p.MinISO, p.MaxISO)
	c.exposure, c.iso = exp, iso
}

// normOffset maps index i of n to [−1, 1] across the frame, the
// vignetting radius along one axis: 0 at the center, and 0 for a
// one-sample axis.
func normOffset(i, n int) float64 {
	if n <= 1 {
		return 0
	}
	return (float64(i)/float64(n-1) - 0.5) * 2
}

// noise adds one component's sensor noise: read noise σ (already
// scaled by ISO/100) plus shot noise ShotNoise·√x for a positive
// signal x, drawn from the camera's stream.
func (c *Camera) noise(x, sigmaRead float64) float64 {
	sigma := sigmaRead
	if x > 0 {
		sigma += c.profile.ShotNoise * math.Sqrt(x)
	}
	return x + c.rng.NormFloat64()*sigma
}

// rowScratch pools per-capture row buffers; distinct cameras may
// capture concurrently (one per pipeline stream), so the pool is
// shared and goroutine-safe.
var rowScratch = sync.Pool{New: func() any { return new([]colorspace.RGB) }}

func getRowScratch(n int) *[]colorspace.RGB {
	p := rowScratch.Get().(*[]colorspace.RGB)
	if cap(*p) < n {
		*p = make([]colorspace.RGB, n)
	} else {
		*p = (*p)[:n]
	}
	return p
}

func putRowScratch(p *[]colorspace.RGB) { rowScratch.Put(p) }

// blurRows convolves the per-row colors with a Gaussian of the given
// standard deviation (in rows), modeling the lens point-spread
// function. Zero sigma returns the input unchanged.
func blurRows(rows []colorspace.RGB, sigma float64) []colorspace.RGB {
	if sigma <= 0 || len(rows) == 0 {
		return rows
	}
	out := make([]colorspace.RGB, len(rows))
	blurRowsInto(out, rows, sigma)
	return out
}

// blurRowsInto is blurRows writing into a caller-owned buffer (dst
// and rows must not alias; every dst element is overwritten).
func blurRowsInto(dst, rows []colorspace.RGB, sigma float64) {
	radius := int(3*sigma + 0.5)
	if radius < 1 {
		radius = 1
	}
	kernel := make([]float64, 2*radius+1)
	var sum float64
	for i := range kernel {
		d := float64(i - radius)
		kernel[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += kernel[i]
	}
	for i := range kernel {
		kernel[i] /= sum
	}
	for r := range rows {
		var acc colorspace.RGB
		for i, kv := range kernel {
			src := r + i - radius
			if src < 0 {
				src = 0
			}
			if src >= len(rows) {
				src = len(rows) - 1
			}
			acc = acc.Add(rows[src].Scale(kv))
		}
		dst[r] = acc
	}
}

func applyMatrix(m [3][3]float64, v colorspace.RGB) colorspace.RGB {
	return colorspace.RGB{
		R: m[0][0]*v.R + m[0][1]*v.G + m[0][2]*v.B,
		G: m[1][0]*v.R + m[1][1]*v.G + m[1][2]*v.B,
		B: m[2][0]*v.R + m[2][1]*v.G + m[2][2]*v.B,
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
