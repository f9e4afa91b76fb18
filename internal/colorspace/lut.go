package colorspace

import "math"

// This file is the fast path for the receiver's per-frame color
// conversion: the sRGB inverse tone curve and the labF cube-root
// transfer are tabulated once at startup, and the RGB→XYZ matrix is
// premultiplied by the reciprocal D65 white point. The modem converts
// each scanline's mean color through LinearRGBToLabFast.
//
// Accuracy contract (verified by TestLUTLabError / TestLUTDeltaE2000):
// for inputs in [0, 1] the tabulated conversions stay within
// LUTMaxDeltaE2000 of the exact LinearRGBToLab / sRGB chain. The modem
// depends on this bound being far below its decision margins
// (boundaryTheta = 8 ΔE, whiteMargin = 10), so decisions made on the
// fast path agree with the exact scalar reference; the differential
// golden-frame harness in internal/modem pins that equivalence
// end-to-end.

const (
	// labFTableSize is the number of cells tabulating labF over [0, 1].
	// labF's curvature peaks just above labEps (f'' ≈ −581 at t =
	// 216/24389), so the linear-interpolation error there is about
	// f''·h²/8 ≈ 3e-7 with h = 1/16384 — small enough that the
	// amplified A channel (×500) stays within ~3e-4 of exact.
	labFTableSize = 16384

	// srgbTableSize tabulates the sRGB inverse tone curve over [0, 1].
	srgbTableSize = 4096

	// LUTMaxDeltaE2000 is the documented ceiling on the CIEDE2000
	// difference between a LUT-converted Lab value and the exact
	// conversion, for any sRGB input in [0, 1]³. The measured maximum
	// over large random samples is below 2e-3; the constant leaves
	// headroom for unlucky corners of the cube.
	LUTMaxDeltaE2000 = 5e-3
)

var (
	labFTable [labFTableSize + 1]float64
	srgbTable [srgbTableSize + 1]float64

	// rgbToXYZRatio is the sRGB→XYZ matrix with each row pre-divided by
	// the corresponding D65 white component, so the fast path computes
	// X/Xn, Y/Yn, Z/Zn directly and feeds them to labF without the
	// per-pixel divisions of the exact chain.
	rgbToXYZRatio [3][3]float64
)

func init() {
	for i := 0; i <= labFTableSize; i++ {
		labFTable[i] = labF(float64(i) / labFTableSize)
	}
	for i := 0; i <= srgbTableSize; i++ {
		srgbTable[i] = SRGBToLinear(float64(i) / srgbTableSize)
	}
	white := [3]float64{D65.X, D65.Y, D65.Z}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			rgbToXYZRatio[r][c] = rgbToXYZ[r][c] / white[r]
		}
	}
}

// labFFast is the tabulated labF transfer with linear interpolation.
// Inputs outside [0, 1] fall back to the exact function (linear RGB in
// [0, 1] always yields white-relative ratios in [0, 1], because each
// matrix row sums to its white component; the fallback keeps the
// function total for synthetic out-of-range inputs).
func labFFast(t float64) float64 {
	if t < 0 || t > 1 {
		return labF(t)
	}
	x := t * labFTableSize
	i := int(x)
	if i >= labFTableSize {
		return labFTable[labFTableSize]
	}
	f := x - float64(i)
	return labFTable[i] + f*(labFTable[i+1]-labFTable[i])
}

// SRGBToLinearFast is the tabulated sRGB inverse tone curve with
// linear interpolation; out-of-range inputs fall back to the exact
// curve.
func SRGBToLinearFast(v float64) float64 {
	if v < 0 || v > 1 {
		return SRGBToLinear(v)
	}
	x := v * srgbTableSize
	i := int(x)
	if i >= srgbTableSize {
		return srgbTable[srgbTableSize]
	}
	f := x - float64(i)
	return srgbTable[i] + f*(srgbTable[i+1]-srgbTable[i])
}

// linearToLabFast converts one linear RGB triple using the
// premultiplied matrix and the labF table.
func linearToLabFast(r, g, b float64) Lab {
	fx := labFFast(rgbToXYZRatio[0][0]*r + rgbToXYZRatio[0][1]*g + rgbToXYZRatio[0][2]*b)
	fy := labFFast(rgbToXYZRatio[1][0]*r + rgbToXYZRatio[1][1]*g + rgbToXYZRatio[1][2]*b)
	fz := labFFast(rgbToXYZRatio[2][0]*r + rgbToXYZRatio[2][1]*g + rgbToXYZRatio[2][2]*b)
	return Lab{
		L: 116*fy - 16,
		A: 500 * (fx - fy),
		B: 200 * (fy - fz),
	}
}

// LinearRGBToLabFast is the tabulated counterpart of LinearRGBToLab:
// premultiplied matrix plus labF lookup, D65 white. Its error bound is
// documented at LUTMaxDeltaE2000.
func LinearRGBToLabFast(c RGB) Lab { return linearToLabFast(c.R, c.G, c.B) }

// SRGBToLabFast converts a gamma-encoded sRGB color straight to Lab
// through the fused tone-curve and labF tables.
func SRGBToLabFast(c RGB) Lab {
	return linearToLabFast(SRGBToLinearFast(c.R), SRGBToLinearFast(c.G), SRGBToLinearFast(c.B))
}

// DistSq returns the squared Euclidean distance between two {a,b}
// colors. Comparing squared distances is decision-identical to
// comparing Dist values (sqrt is monotone), and the fast classifier
// uses it to avoid a Hypot per reference.
func (c AB) DistSq(o AB) float64 {
	da, db := c.A-o.A, c.B-o.B
	return da*da + db*db
}

// DeltaE2000AB is DeltaE2000 for two colors pinned to the same
// lightness: with dL = 0 the S_L term drops out of the formula
// entirely, so the result is bit-identical to
// DeltaE2000(Lab{L,a1,b1}, Lab{L,a2,b2}) for any shared L
// (TestDeltaE2000ABMatchesPinned asserts exact equality). The modem's
// margin accounting evaluates every distance at a nominal L, making
// this the hot CIEDE2000 entry point.
func DeltaE2000AB(x, y AB) float64 {
	const deg = math.Pi / 180

	c1 := chromaAB(x.A, x.B)
	c2 := chromaAB(y.A, y.B)
	cBar := (c1 + c2) / 2

	g := 0.5 * (1 - math.Sqrt(pow7(cBar)/(pow7(cBar)+pow7(25))))
	a1p := (1 + g) * x.A
	a2p := (1 + g) * y.A
	c1p := chromaAB(a1p, x.B)
	c2p := chromaAB(a2p, y.B)

	h1p := hueDeg(x.B, a1p)
	h2p := hueDeg(y.B, a2p)

	dC := c2p - c1p

	var dhp float64
	switch {
	case c1p*c2p == 0:
		dhp = 0
	case math.Abs(h2p-h1p) <= 180:
		dhp = h2p - h1p
	case h2p-h1p > 180:
		dhp = h2p - h1p - 360
	default:
		dhp = h2p - h1p + 360
	}
	dH := 2 * math.Sqrt(c1p*c2p) * math.Sin(dhp/2*deg)

	cBarP := (c1p + c2p) / 2

	var hBar float64
	switch {
	case c1p*c2p == 0:
		hBar = h1p + h2p
	case math.Abs(h1p-h2p) <= 180:
		hBar = (h1p + h2p) / 2
	case h1p+h2p < 360:
		hBar = (h1p + h2p + 360) / 2
	default:
		hBar = (h1p + h2p - 360) / 2
	}

	t := 1 -
		0.17*math.Cos((hBar-30)*deg) +
		0.24*math.Cos(2*hBar*deg) +
		0.32*math.Cos((3*hBar+6)*deg) -
		0.20*math.Cos((4*hBar-63)*deg)

	dTheta := 30 * math.Exp(-sq((hBar-275)/25))
	rc := 2 * math.Sqrt(pow7(cBarP)/(pow7(cBarP)+pow7(25)))
	sc := 1 + 0.045*cBarP
	sh := 1 + 0.015*cBarP*t
	rt := -math.Sin(2*dTheta*deg) * rc

	return math.Sqrt(
		sq(dC/sc) + sq(dH/sh) + rt*(dC/sc)*(dH/sh))
}
