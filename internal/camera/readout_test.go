package camera

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"colorbars/internal/colorspace"
	"colorbars/internal/led"
)

// referenceCapture is Capture with the per-pixel readout written out
// the direct way: vignetting falloff and sensor noise evaluated per
// pixel, then math.Pow for the tone curve and math.Round for the ADC.
// It is the oracle the table-driven readout is tested against, so it
// stays in its direct form. Apart from the one-row vignetting fix in
// refFalloff it is the readout as first written.
func referenceCapture(c *Camera, w Source, start float64) *Frame {
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
	gamma := p.ToneGamma
	if gamma == 0 {
		gamma = 1
	}
	rowSensed := make([]colorspace.RGB, p.Rows)
	for r := 0; r < p.Rows; r++ {
		t0 := start + float64(r)*p.RowTime
		radiance := w.Mean(t0, t0+c.exposure)
		rowSensed[r] = applyMatrix(p.ColorMatrix, radiance).Scale(gain)
	}
	if p.OpticalBlurRows > 0 {
		rowSensed = blurRows(rowSensed, p.OpticalBlurRows)
	}
	for r := 0; r < p.Rows; r++ {
		sensed := rowSensed[r]
		for col := 0; col < p.Cols; col++ {
			v := sensed.Scale(c.refFalloff(r, col))
			if p.ShotNoise > 0 || p.ReadNoise > 0 {
				v = c.refAddNoise(v)
			}
			v = v.Clamp()
			if gamma != 1 {
				v = colorspace.RGB{
					R: math.Pow(v.R, gamma),
					G: math.Pow(v.G, gamma),
					B: math.Pow(v.B, gamma),
				}
			}
			// ADC quantization.
			v.R = math.Round(v.R*maxLevel) / maxLevel
			v.G = math.Round(v.G*maxLevel) / maxLevel
			v.B = math.Round(v.B*maxLevel) / maxLevel
			f.Pix[r*p.Cols+col] = v
		}
	}
	if !c.manual {
		c.autoExpose(f)
	}
	return f
}

// refFalloff returns the vignetting factor at (row, col): 1 at the
// frame center, decreasing toward edges as 1/(1+v·r²)².
func (c *Camera) refFalloff(row, col int) float64 {
	p := c.profile
	if p.Vignetting == 0 {
		return 1
	}
	dr := 0.0
	if p.Rows > 1 {
		dr = (float64(row)/float64(p.Rows-1) - 0.5) * 2
	}
	dc := 0.0
	if p.Cols > 1 {
		dc = (float64(col)/float64(p.Cols-1) - 0.5) * 2
	}
	r2 := (dr*dr + dc*dc) / 2 // normalize corner distance to ~1
	d := 1 + p.Vignetting*r2
	return 1 / (d * d)
}

func (c *Camera) refAddNoise(v colorspace.RGB) colorspace.RGB {
	p := c.profile
	isoGain := c.iso / 100
	sigmaRead := p.ReadNoise * isoGain
	noise := func(x float64) float64 {
		sigma := sigmaRead
		if x > 0 {
			sigma += p.ShotNoise * math.Sqrt(x)
		}
		return x + c.rng.NormFloat64()*sigma
	}
	return colorspace.RGB{R: noise(v.R), G: noise(v.G), B: noise(v.B)}
}

// randomColorWaveform returns a seeded waveform of random drive colors
// with about one symbol in five OFF, the mix a CSK link puts on air.
func randomColorWaveform(t testing.TB, seed int64, rate, seconds float64) *led.Waveform {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	drives := make([]colorspace.RGB, int(rate*seconds))
	for i := range drives {
		if rng.Intn(5) == 0 {
			continue // OFF
		}
		drives[i] = colorspace.RGB{R: rng.Float64(), G: rng.Float64(), B: rng.Float64()}
	}
	w, err := led.NewWaveform(led.Config{SymbolRate: rate, Power: 1}, drives)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// samePixels reports the first pixel whose bits differ, or -1.
func samePixels(a, b *Frame) int {
	for i := range a.Pix {
		x, y := a.Pix[i], b.Pix[i]
		if math.Float64bits(x.R) != math.Float64bits(y.R) ||
			math.Float64bits(x.G) != math.Float64bits(y.G) ||
			math.Float64bits(x.B) != math.Float64bits(y.B) {
			return i
		}
	}
	return -1
}

// TestCaptureMatchesReference checks Capture against the direct
// per-pixel readout bit for bit, on every built-in profile, under auto
// exposure (which carries each frame's level into the next frame's
// settings) and under manual extremes that clip pixels to 0 and to 1.
func TestCaptureMatchesReference(t *testing.T) {
	oneRow := Nexus5()
	oneRow.Name, oneRow.Rows = "one-row", 1
	profiles := map[string]Profile{"one-row": oneRow}
	for name, p := range Profiles() {
		profiles[name] = p
	}
	modes := []struct {
		name     string
		frames   int
		exposure float64 // 0 = auto exposure
		iso      float64
	}{
		{"auto", 12, 0, 0},
		{"clip-low", 3, 0, 0},    // manual at the profile minimum
		{"clip-high", 3, 1, 1e9}, // manual, clamped to the maximum
	}
	for name, p := range profiles {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 4; seed++ {
				w := randomColorWaveform(t, seed, 3000, 1)
				for _, m := range modes {
					fast, ref := New(p, seed), New(p, seed)
					if m.name != "auto" {
						fast.SetManual(m.exposure, m.iso)
						ref.SetManual(m.exposure, m.iso)
					}
					var clipped [2]int
					for i := 0; i < m.frames; i++ {
						at := 0.01 + float64(i)*p.FramePeriod()
						got, want := fast.Capture(w, at), referenceCapture(ref, w, at)
						if px := samePixels(got, want); px >= 0 {
							t.Fatalf("seed %d %s frame %d: pixel %d = %v, reference %v",
								seed, m.name, i, px, got.Pix[px], want.Pix[px])
						}
						if fast.Exposure() != ref.Exposure() || fast.ISO() != ref.ISO() {
							t.Fatalf("seed %d %s frame %d: exposure/ISO diverged", seed, m.name, i)
						}
						for _, px := range got.Pix {
							for _, v := range [3]float64{px.R, px.G, px.B} {
								if v == 0 {
									clipped[0]++
								} else if v == 1 {
									clipped[1]++
								}
							}
						}
					}
					switch {
					case m.name == "clip-low" && clipped[0] == 0:
						t.Errorf("seed %d: clip-low produced no zero components", seed)
					case m.name == "clip-high" && clipped[1] == 0:
						t.Errorf("seed %d: clip-high produced no saturated components", seed)
					}
				}
			}
		})
	}
}

// TestToneTableMatchesReference sweeps every float64 within ±4096
// steps of every threshold, plus 1M random values biased toward 0 and
// the special values, through the table and the reference expression.
// The band around the thresholds is where math.Pow is not monotone;
// removing the table's guard band makes this test fail.
func TestToneTableMatchesReference(t *testing.T) {
	const sweep = 4096
	specials := []float64{0, math.Copysign(0, -1), 1, 0.5, 5e-324, math.SmallestNonzeroFloat64 * 7,
		math.Nextafter(1, 0), math.Nextafter(1, 2), -1e-300, -1, 2, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, gamma := range []float64{0.7, 0.85, 0.5, 1.3, 2.2} {
		for _, bits := range []int{8, 10} {
			t.Run(fmt.Sprintf("gamma%v/bits%d", gamma, bits), func(t *testing.T) {
				t.Parallel()
				tab := newToneTable(gamma, bits)
				maxLevel := float64(int(1)<<bits - 1)
				bad := 0
				check := func(v float64) {
					got, want := tab.quantize(v), math.Round(math.Pow(v, gamma)*maxLevel)/maxLevel
					if math.Float64bits(got) != math.Float64bits(want) {
						if bad++; bad <= 5 {
							t.Errorf("v=%v (%#x): table %v, reference %v", v, math.Float64bits(v), got, want)
						}
					}
				}
				for _, thr := range tab.thr {
					for b := thr - min(thr, sweep); b <= min(thr+sweep, bitsOne); b++ {
						check(math.Float64frombits(b))
					}
				}
				rng := rand.New(rand.NewSource(int64(bits) + int64(gamma*1000)))
				for i := 0; i < 1_000_000; i++ {
					u := rng.Float64()
					check(u * u * u) // biased toward 0, where γ < 1 crowds the thresholds
				}
				for _, v := range specials {
					check(v)
				}
				if bad > 0 {
					t.Errorf("%d values differ from the reference", bad)
				}
			})
		}
	}
}

// TestToneTableThresholds checks the table's own invariants: the
// thresholds rise, each one is a point where the reference level steps
// up to at least k, and the bucket starts never overshoot.
func TestToneTableThresholds(t *testing.T) {
	for _, c := range []struct {
		gamma float64
		bits  int
	}{{0.7, 8}, {2.2, 10}, {0.7, 16}, {0.01, 8}} {
		tab := newToneTable(c.gamma, c.bits)
		refLevel := func(b uint64) float64 {
			return math.Round(math.Pow(math.Float64frombits(b), c.gamma) * tab.max)
		}
		for i, thr := range tab.thr {
			k := float64(i + 1)
			if i > 0 && thr < tab.thr[i-1] {
				t.Fatalf("γ %v/%d bits: threshold %d below its predecessor", c.gamma, c.bits, i+1)
			}
			if refLevel(thr) < k || refLevel(thr-1) >= k {
				t.Fatalf("γ %v/%d bits: threshold %d at %v is not a step to level %v", c.gamma, c.bits, i+1, math.Float64frombits(thr), k)
			}
		}
		for i, s := range tab.start {
			b := math.Float64bits(float64(i) / toneBuckets)
			if s > 0 && tab.thr[s-1] > b {
				t.Fatalf("γ %v/%d bits: bucket %d starts past its first value", c.gamma, c.bits, i)
			}
		}
	}
}

// TestCaptureConcurrentCameras captures on several cameras at once
// (the pipeline runs one per stream) and checks each frame against the
// same capture made alone; run it under -race.
func TestCaptureConcurrentCameras(t *testing.T) {
	p := IPhone5S()
	w := randomColorWaveform(t, 9, 3000, 1)
	const cams, frames = 4, 3
	capture := func(seed int64) []*Frame {
		cam := New(p, seed)
		out := make([]*Frame, frames)
		for i := range out {
			out[i] = cam.Capture(w, 0.01+float64(i)*p.FramePeriod())
		}
		return out
	}
	got := make([][]*Frame, cams)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = capture(int64(i))
		}(i)
	}
	wg.Wait()
	for i := range got {
		for j, f := range capture(int64(i)) {
			if px := samePixels(got[i][j], f); px >= 0 {
				t.Errorf("camera %d frame %d: concurrent capture differs at pixel %d", i, j, px)
			}
		}
	}
}

// TestValidateRejectsNonFinitePixels checks that every profile
// Validate accepts captures finite pixels in [0, 1]: each float64
// field and each color-matrix entry set to NaN, +Inf and −Inf, and
// the finite values that broke Capture (a negative tone gamma,
// vignetting or target level, an initial ISO of 0), must be rejected
// or capture cleanly. The one-row frame's vignetting radius must not
// divide by Rows−1 = 0.
func TestValidateRejectsNonFinitePixels(t *testing.T) {
	type edit struct {
		name string
		set  func(*Profile)
	}
	var cases []edit
	floats := 0
	pt := reflect.TypeOf(Profile{})
	for i := 0; i < pt.NumField(); i++ {
		field := pt.Field(i)
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			switch field.Type {
			case reflect.TypeOf(0.0):
				cases = append(cases, edit{fmt.Sprintf("%s %v", field.Name, bad), func(p *Profile) {
					reflect.ValueOf(p).Elem().Field(i).SetFloat(bad)
				}})
				floats++
			case reflect.TypeOf([3][3]float64{}):
				for r := 0; r < 3; r++ {
					for c := 0; c < 3; c++ {
						cases = append(cases, edit{fmt.Sprintf("%s[%d][%d] %v", field.Name, r, c, bad), func(p *Profile) {
							reflect.ValueOf(p).Elem().Field(i).Index(r).Index(c).SetFloat(bad)
						}})
						floats++
					}
				}
			}
		}
	}
	if want := 3 * (16 + 9); floats != want {
		t.Fatalf("%d non-finite cases, want %d: a float field was added or removed", floats, want)
	}
	cases = append(cases,
		edit{"gamma negative", func(p *Profile) { p.ToneGamma = -0.5 }},
		edit{"vignetting negative", func(p *Profile) { p.Vignetting = -1 }},
		edit{"target level negative", func(p *Profile) { p.TargetLevel = -0.5 }},
		edit{"initial ISO 0", func(p *Profile) { p.InitISO = 0 }},
		edit{"initial exposure negative", func(p *Profile) { p.InitExposure = -1e-4 }},
	)
	w := randomColorWaveform(t, 1, 3000, 0.2)
	for _, c := range cases {
		p := Nexus5()
		c.set(&p)
		if p.Validate() == nil {
			if err := captureClean(p, w); err != nil {
				t.Errorf("%s: accepted, but %v", c.name, err)
			}
		}
	}
	if err := captureClean(Nexus5(), w); err != nil {
		t.Errorf("Nexus 5: %v", err)
	}
	p := Nexus5()
	p.ToneGamma = 0 // 0 means no tone curve
	if err := p.Validate(); err != nil {
		t.Errorf("gamma 0 rejected: %v", err)
	}

	oneRow := Nexus5()
	oneRow.Rows = 1
	if err := captureClean(oneRow, w); err != nil {
		t.Errorf("one-row frame: %v", err)
	}
}

// captureClean captures a few auto-exposed frames with the profile and
// reports a panic or any pixel component outside [0, 1].
func captureClean(p Profile, w Source) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	for _, f := range New(p, 1).CaptureVideo(w, 0.01, 4) {
		for _, px := range f.Pix {
			for _, v := range [3]float64{px.R, px.G, px.B} {
				if !(v >= 0 && v <= 1) {
					return fmt.Errorf("pixel component %v outside [0, 1]", v)
				}
			}
		}
	}
	return nil
}

var benchFrame *Frame

// BenchmarkCapture times one frame per built-in profile against a
// two-color waveform at a fixed manual exposure.
func BenchmarkCapture(b *testing.B) {
	drives := make([]colorspace.RGB, 4000)
	for i := range drives {
		drives[i] = colorspace.RGB{R: float64(i % 2), G: 0.5, B: 0.2}
	}
	w, err := led.NewWaveform(led.Config{SymbolRate: 2000, Power: 1}, drives)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"nexus5", "iphone5s", "ideal"} {
		b.Run(name, func(b *testing.B) {
			cam := New(Profiles()[name], 1)
			cam.SetManual(500e-6, 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchFrame = cam.Capture(w, 0.1)
			}
		})
	}
}
