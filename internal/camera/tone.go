package camera

import "math"

// toneBuckets is the number of equal-width buckets over [0, 1] that
// index a toneTable: a value v starts its threshold scan at bucket
// int(v·toneBuckets).
const toneBuckets = 4096

// toneGuardUlps is the half-width, in float64 steps, of the band
// around each threshold inside which a toneTable defers to the
// reference expression, at γ ≥ 1. math.Pow is not monotone at the
// level of single ulps, so near a threshold the reference level can
// flip back and forth; measured flips reach 6 ulps (γ 0.7, 10 bits).
// Pow's relative error maps to an error in v scaled by 1/γ, so the
// band widens as 1/γ below γ = 1 (DESIGN.md §16).
const toneGuardUlps = 1024

// bitsOne is math.Float64bits(1). For a float64 v, bits(v) ≤ bitsOne
// holds exactly when v is +0 or in (0, 1]; NaN, −0 and negative values
// fail it. On that range the bit patterns order like the values.
const bitsOne = 0x3FF0000000000000

// toneTable is the device tone curve and the ADC of Capture as one
// lookup: it maps a clamped sensor value v to
//
//	math.Round(math.Pow(v, γ)·max) / max,   max = 2^QuantBits − 1
//
// bit for bit. Because the ADC emits only max+1 levels, the curve is
// fully described by the max inputs at which the level steps up. A
// table is immutable once built.
type toneTable struct {
	gamma, max float64
	// thr[k−1] is the bit pattern of a float64 in [0, 1] at which the
	// reference level steps from below k to at least k, for
	// k = 1..max: the first such step, up to Pow's ulp-level
	// non-monotonicity, which the guard band covers. Outside the
	// bands, the level of a value is the number of thresholds at or
	// below it.
	thr []uint64
	// start[i] is the number of thresholds at or below i/toneBuckets,
	// where a lookup in bucket i begins its forward scan.
	start []uint16
	// level[k] is float64(k)/max, the float the reference's division
	// produces for level k.
	level []float64
	// guard is the band half-width in float64 steps.
	guard uint64
}

// newToneTable derives the thresholds for tone curve γ > 0 and an ADC
// of the given depth from the reference expression itself.
func newToneTable(gamma float64, bits int) *toneTable {
	maxLevel := float64(int(1)<<bits - 1)
	n := int(maxLevel)
	t := &toneTable{
		gamma: gamma,
		max:   maxLevel,
		thr:   make([]uint64, n),
		start: make([]uint16, toneBuckets+1),
		level: make([]float64, n+1),
		guard: uint64(math.Min(toneGuardUlps/math.Min(gamma, 1), 1<<62)),
	}
	refLevel := func(b uint64) float64 {
		return math.Round(math.Pow(math.Float64frombits(b), gamma) * maxLevel)
	}
	// Invariant for each k: refLevel(lo) < k ≤ refLevel(hi). Level 0
	// at v = 0 and level max at v = 1 hold for every γ > 0.
	lo := uint64(0)
	for k := 1; k <= n; k++ {
		want, hi := float64(k), uint64(bitsOne)
		// Bracket tightly around the inverse curve, then bisect on
		// the bit pattern: a handful of Pow calls per threshold keeps
		// an 8-bit table well under a millisecond.
		est := math.Float64bits(math.Pow((want-0.5)/maxLevel, 1/gamma))
		if est > lo && est < hi {
			for step := uint64(16); est-lo > step; step *= 2 {
				if refLevel(est-step) < want {
					lo = est - step
					break
				}
			}
			for step := uint64(16); hi-est > step; step *= 2 {
				if refLevel(est+step) >= want {
					hi = est + step
					break
				}
			}
		}
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if refLevel(mid) >= want {
				hi = mid
			} else {
				lo = mid
			}
		}
		t.thr[k-1] = hi
	}
	for k := range t.level {
		t.level[k] = float64(k) / maxLevel
	}
	k := 0
	for i := range t.start {
		b := math.Float64bits(float64(i) / toneBuckets)
		for k < n && t.thr[k] <= b {
			k++
		}
		t.start[i] = uint16(k)
	}
	return t
}

// quantize returns the ADC output for a clamped sensor value v. Values
// within the guard band of a threshold, NaN, −0 and anything outside
// [0, 1] take the reference expression.
func (t *toneTable) quantize(v float64) float64 {
	b := math.Float64bits(v)
	if b > bitsOne {
		return t.reference(v)
	}
	k := int(t.start[int(v*toneBuckets)])
	for k < len(t.thr) && t.thr[k] <= b {
		k++
	}
	if (k > 0 && b-t.thr[k-1] <= t.guard) || (k < len(t.thr) && t.thr[k]-b <= t.guard) {
		return t.reference(v)
	}
	return t.level[k]
}

// reference is the tone curve and ADC evaluated directly.
func (t *toneTable) reference(v float64) float64 {
	return math.Round(math.Pow(v, t.gamma)*t.max) / t.max
}
