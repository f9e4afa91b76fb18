package colorspace

import (
	"math"
	"math/rand"
	"testing"
)

// TestLUTLabError bounds the fast linear-RGB conversion against the
// exact chain: over random linear RGB inputs (plus adversarial values
// straddling the labF curvature knee) the CIEDE2000 difference between
// the tabulated and exact Lab must stay below the documented
// LUTMaxDeltaE2000.
func TestLUTLabError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	worst := 0.0
	check := func(c RGB) {
		exact := LinearRGBToLab(c)
		fast := LinearRGBToLabFast(c)
		if d := DeltaE2000(exact, fast); d > worst {
			worst = d
		}
	}
	for i := 0; i < 10000; i++ {
		check(RGB{rng.Float64(), rng.Float64(), rng.Float64()})
	}
	// The labF knee (t = labEps) is where interpolation error peaks;
	// sweep tiny intensities that land the white-relative ratios there.
	for i := 0; i < 2000; i++ {
		v := labEps * (0.5 + 1.5*rng.Float64())
		check(RGB{v, v, v})
		check(RGB{v * rng.Float64(), v * rng.Float64(), v * rng.Float64()})
	}
	for _, c := range []RGB{{}, {1, 1, 1}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		check(c)
	}
	if worst > LUTMaxDeltaE2000 {
		t.Errorf("worst LUT ΔE00 = %g exceeds documented bound %g", worst, LUTMaxDeltaE2000)
	}
	t.Logf("worst linear-RGB LUT ΔE00 = %.3g (bound %g)", worst, LUTMaxDeltaE2000)
}

// TestLUTDeltaE2000 runs the satellite property: the max DeltaE2000
// between LUT-converted and exact Lab over 10k random sRGB values
// (through the fused tone-curve + labF tables) stays below the
// documented epsilon.
func TestLUTDeltaE2000(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	worst := 0.0
	for i := 0; i < 10000; i++ {
		c := RGB{rng.Float64(), rng.Float64(), rng.Float64()}
		exact := LinearRGBToLab(c.Linearize())
		fast := SRGBToLabFast(c)
		if d := DeltaE2000(exact, fast); d > worst {
			worst = d
		}
	}
	if worst > LUTMaxDeltaE2000 {
		t.Errorf("worst sRGB LUT ΔE00 = %g exceeds documented bound %g", worst, LUTMaxDeltaE2000)
	}
	t.Logf("worst sRGB LUT ΔE00 = %.3g (bound %g)", worst, LUTMaxDeltaE2000)
}

// TestLUTFallbacksExact: outside [0, 1] the tabulated transfers must
// defer to the exact functions bit-for-bit.
func TestLUTFallbacksExact(t *testing.T) {
	for _, v := range []float64{-2, -0.001, 1.0001, 3.7} {
		if got, want := labFFast(v), labF(v); got != want {
			t.Errorf("labFFast(%v) = %v, want exact %v", v, got, want)
		}
		if got, want := SRGBToLinearFast(v), SRGBToLinear(v); got != want {
			t.Errorf("SRGBToLinearFast(%v) = %v, want exact %v", v, got, want)
		}
	}
	// Endpoints hit table entries exactly: labF(0), labF(1), curve ends.
	if labFFast(0) != labF(0) || labFFast(1) != labF(1) {
		t.Error("labFFast endpoints do not match exact labF")
	}
	if SRGBToLinearFast(0) != 0 || math.Abs(SRGBToLinearFast(1)-1) > 1e-12 {
		t.Error("SRGBToLinearFast endpoints off")
	}
}

// TestDeltaE2000ABMatchesPinned: the pinned-lightness fast variant is
// bit-identical to the full formula whenever both colors share any
// lightness (the S_L term vanishes with dL = 0).
func TestDeltaE2000ABMatchesPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		x := AB{rng.Float64()*240 - 120, rng.Float64()*240 - 120}
		y := AB{rng.Float64()*240 - 120, rng.Float64()*240 - 120}
		l := rng.Float64() * 100
		want := DeltaE2000(Lab{l, x.A, x.B}, Lab{l, y.A, y.B})
		if got := DeltaE2000AB(x, y); got != want {
			t.Fatalf("DeltaE2000AB(%v, %v) = %v, want %v (L=%v)", x, y, got, want, l)
		}
	}
	// Degenerate hue cases: neutral axis, zero chroma on one side.
	for _, pair := range [][2]AB{{{0, 0}, {0, 0}}, {{0, 0}, {5, -3}}, {{-2, 0}, {0, 7}}} {
		want := DeltaE2000(Lab{50, pair[0].A, pair[0].B}, Lab{50, pair[1].A, pair[1].B})
		if got := DeltaE2000AB(pair[0], pair[1]); got != want {
			t.Fatalf("DeltaE2000AB(%v, %v) = %v, want %v", pair[0], pair[1], got, want)
		}
	}
}

// TestDistSqConsistent: DistSq agrees with Dist² to rounding, so
// squared-distance argmin decisions match Dist-based ones.
func TestDistSqConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		x := AB{rng.Float64()*200 - 100, rng.Float64()*200 - 100}
		y := AB{rng.Float64()*200 - 100, rng.Float64()*200 - 100}
		d := x.Dist(y)
		if diff := math.Abs(d*d - x.DistSq(y)); diff > 1e-9*(1+d*d) {
			t.Fatalf("DistSq(%v, %v) = %v, Dist² = %v", x, y, x.DistSq(y), d*d)
		}
	}
}

func BenchmarkLinearRGBToLabFast(b *testing.B) {
	c := RGB{0.3, 0.6, 0.1}
	for i := 0; i < b.N; i++ {
		_ = LinearRGBToLabFast(c)
	}
}

func BenchmarkDeltaE2000AB(b *testing.B) {
	x := AB{20, -30}
	y := AB{18, -28}
	for i := 0; i < b.N; i++ {
		_ = DeltaE2000AB(x, y)
	}
}
