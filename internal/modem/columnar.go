package modem

import (
	"math"
	"sync"

	"colorbars/internal/camera"
	"colorbars/internal/colorspace"
)

// This file is the receiver's per-frame front end (paper §7, Steps
// 1–2): the frame is reduced to flat row-mean Lab planes (one packed
// row sum plus one tabulated Lab conversion per row), segmented with
// squared CIE76 distances, and planned into a pooled Analysis — all on
// recycled scratch, so a steady-state Analyze call performs no heap
// allocation.
//
// The scalar reference front end (exact RowMean and LinearRGBToLab,
// plain distances, a full sort for the OFF threshold) lives in
// reference_test.go as a test oracle. The two make identical threshold
// decisions by construction (squared-distance compares are monotone in
// the distances they replace); the numeric differences are the
// tabulated Lab conversion, whose error (≤ colorspace.LUTMaxDeltaE2000)
// sits orders of magnitude below the modem's decision margins, and the
// row sum's association order. The differential golden-frame harness
// (golden_test.go) pins the symbol-for-symbol agreement of the two end
// to end.

// boundaryThetaSq is the segmentation threshold squared, compared
// against squared windowed differences.
const boundaryThetaSq = boundaryTheta * boundaryTheta

// frameScratch is the per-frame working set of the columnar front end.
// One scratch serves one frame at a time; concurrent Analyze calls
// each take their own from the pool.
type frameScratch struct {
	l, a, bb []float64 // row-mean Lab planes
	diff     []float64 // squared windowed color difference per row
	sel      []float64 // quickselect scratch (lightness copy)
	sel2     []float64 // second selection bucket (orderStat2)
	cuts     []int     // detected boundary rows
	fcuts    []float64 // cut positions for the grid-phase fit
	bands    []band    // segmented bands
}

var scratchPool = sync.Pool{New: func() any { return new(frameScratch) }}

func getScratch(rows int) *frameScratch {
	s := scratchPool.Get().(*frameScratch)
	s.resize(rows)
	return s
}

func putScratch(s *frameScratch) { scratchPool.Put(s) }

func (s *frameScratch) resize(rows int) {
	grow := func(p *[]float64) {
		if cap(*p) < rows {
			*p = make([]float64, rows)
		} else {
			*p = (*p)[:rows]
		}
	}
	grow(&s.l)
	grow(&s.a)
	grow(&s.bb)
	grow(&s.diff)
	grow(&s.sel)
	grow(&s.sel2)
	s.cuts = s.cuts[:0]
	s.fcuts = s.fcuts[:0]
	s.bands = s.bands[:0]
}

// extractPlanes fills the Lab planes with each row's mean color. A
// row's channel sums are sumPix12 over its whole 4-pixel groups (the
// SSE2 kernel on amd64, the portable 12-lane fold elsewhere, in the
// same association order) plus a left-to-right fold of the last
// Cols%4 pixels, so the planes are bit-identical on every
// architecture. Each row converts to Lab right after its sum: the sum
// streams cold pixels from DRAM while the conversion is pure
// arithmetic on the row just summed, so out-of-order execution hides
// the conversion under the stream's cache-miss stalls.
func (s *frameScratch) extractPlanes(f *camera.Frame) {
	inv := 1 / float64(f.Cols)
	groups := f.Cols / 4
	for r := 0; r < f.Rows; r++ {
		row := f.Pix[r*f.Cols : (r+1)*f.Cols]
		var sr, sg, sb float64
		if groups > 0 {
			sr, sg, sb = sumPix12(&row[0], groups)
		}
		for _, p := range row[groups*4:] {
			sr += p.R
			sg += p.G
			sb += p.B
		}
		lab := colorspace.LinearRGBToLabFast(colorspace.RGB{R: sr * inv, G: sg * inv, B: sb * inv})
		s.l[r], s.a[r], s.bb[r] = lab.L, lab.A, lab.B
	}
}

// segment splits the Lab planes at color discontinuities. rowsPerSym
// is the expected band width (symbol period / row time); smearRows is
// the width of the exposure smear (exposure time / row time), which
// spreads each transition over several rows. Every distance compare is
// on squared CIE76 values. The returned bands live in the scratch and
// are invalidated by the next use.
func (s *frameScratch) segment(rowsPerSym, smearRows float64) []band {
	n := len(s.l)
	if n == 0 {
		return s.bands[:0]
	}
	// Windowed color difference: compare rows half a smear apart so a
	// transition's full amplitude shows up even when the per-row
	// change is small. h ≥ 1.
	h := int(smearRows/2 + 1)
	diff := s.diff
	l, a, bb := s.l, s.a, s.bb
	for i := 0; i < n; i++ {
		lo, hi := i-h, i+h
		if lo < 0 || hi >= n {
			diff[i] = 0
			continue
		}
		dl, da, db := l[lo]-l[hi], a[lo]-a[hi], bb[lo]-bb[hi]
		diff[i] = dl*dl + da*da + db*db
	}
	minSpacing := int(rowsPerSym / 2)
	if minSpacing < 1 {
		minSpacing = 1
	}
	// Boundaries are local maxima of the windowed difference above the
	// threshold, greedily separated by minSpacing.
	cuts := s.cuts[:0]
	lastCut := -minSpacing
	for i := 1; i+1 < n; i++ {
		if diff[i] >= boundaryThetaSq && diff[i] >= diff[i-1] && diff[i] > diff[i+1] {
			if i-lastCut >= minSpacing {
				cuts = append(cuts, i)
				lastCut = i
			}
		}
	}
	s.cuts = cuts
	bands := s.bands[:0]
	prev := 0
	for _, c := range cuts {
		b := band{start: prev, end: c}
		b.lab = s.bandColor(b, smearRows)
		bands = append(bands, b)
		prev = c
	}
	last := band{start: prev, end: n}
	last.lab = s.bandColor(last, smearRows)
	bands = append(bands, last)
	s.bands = mergeSimilarBandsSq(bands)
	return s.bands
}

// bandColor averages the band's central rows, keeping clear of the
// exposure smear at each edge (at least one row is always kept).
func (s *frameScratch) bandColor(b band, smearRows float64) colorspace.Lab {
	w := b.width()
	trim := int(math.Max(float64(w)*0.3, smearRows*0.75))
	lo, hi := b.start+trim, b.end-trim
	if lo >= hi {
		mid := (b.start + b.end) / 2
		lo, hi = mid, mid+1
	}
	var sl, sa, sb float64
	for r := lo; r < hi; r++ {
		sl += s.l[r]
		sa += s.a[r]
		sb += s.bb[r]
	}
	n := float64(hi - lo)
	return colorspace.Lab{L: sl / n, A: sa / n, B: sb / n}
}

// mergeSimilarBandsSq coalesces adjacent bands whose mean colors sit
// closer than the boundary threshold (compared squared, in full Lab):
// such cuts were spurious (noise can exceed the per-row threshold
// inside dark bands, where the Lab transform amplifies chroma jitter).
// Runs of identical transmitted symbols deliberately re-merge here and
// are split again by band width in planInto.
func mergeSimilarBandsSq(bands []band) []band {
	if len(bands) < 2 {
		return bands
	}
	out := bands[:1]
	for _, b := range bands[1:] {
		prev := &out[len(out)-1]
		dl, da, db := prev.lab.L-b.lab.L, prev.lab.A-b.lab.A, prev.lab.B-b.lab.B
		if dl*dl+da*da+db*db < boundaryThetaSq {
			// Width-weighted color merge.
			wp, wb := float64(prev.width()), float64(b.width())
			total := wp + wb
			prev.lab = colorspace.Lab{
				L: (prev.lab.L*wp + b.lab.L*wb) / total,
				A: (prev.lab.A*wp + b.lab.A*wb) / total,
				B: (prev.lab.B*wp + b.lab.B*wb) / total,
			}
			prev.end = b.end
			continue
		}
		out = append(out, b)
	}
	return out
}

// offLevel computes the frame-adapted OFF lightness threshold from the
// lightness plane. Two effects make a fixed threshold misfire:
// vignetting dims edge rows by a device-dependent factor, and ambient
// light lifts the whole frame — under room lighting an "off" LED still
// leaves the band at the ambient level, not at black. OFF symbols are
// therefore detected relative to the frame's darkest bands: the
// threshold sits a fraction of the dark-to-lit spread above the 5th
// percentile of row lightness. The percentiles are exact order
// statistics (orderStat2), equal to a full sort's. The plane must be
// non-empty.
func (s *frameScratch) offLevel() float64 {
	n := len(s.l)
	p5, p75 := s.orderStat2(n/20, n*3/4)
	spread := p75 - p5
	return math.Max(8, p5+math.Max(5, 0.25*spread))
}

// offHistBins sizes the counting histogram orderStat2 uses to narrow
// each quickselect to one bucket of the lightness range.
const offHistBins = 256

// orderStat2 returns the exact k1-th and k2-th smallest lightness
// values (0-based ranks). One range scan and one counting histogram
// serve both selections — the OFF-threshold fit needs two percentiles
// of the same plane, and the three passes over the rows dominate the
// cost, so fusing them halves it versus two independent selections.
// Each bucket's members then go through quickselect; the k-th order
// statistic is unique as a value, so the results equal a full sort's
// sorted[k1]/sorted[k2] exactly. The plain comparisons (rather than
// math.Min/Max) skip the NaN-propagation branches; a NaN plane is
// caught by the histogram total instead and bails out like a flat
// plane, since no threshold fit is meaningful there.
func (s *frameScratch) orderStat2(k1, k2 int) (float64, float64) {
	l := s.l
	n := len(l)
	lo, hi := l[0], l[0]
	for _, v := range l[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !(hi > lo) { // flat plane: every value is both order statistics
		return l[0], l[0]
	}
	var hist [offHistBins]int32
	scale := (offHistBins - 1) / (hi - lo)
	total := 0
	for _, v := range l {
		// The bounds guard keeps a NaN (whose int conversion is
		// unspecified) from indexing out of range.
		if idx := int((v - lo) * scale); uint(idx) < offHistBins {
			hist[idx]++
			total++
		}
	}
	if total != n { // NaN in the plane: no meaningful statistics
		return l[0], l[0]
	}
	rank1, bin1 := histLocate(&hist, k1)
	rank2, bin2 := histLocate(&hist, k2)
	sel1, sel2 := s.sel[:0], s.sel2[:0]
	b1, b2 := int32(bin1), int32(bin2)
	for _, v := range l {
		b := int32((v - lo) * scale)
		if b == b1 {
			sel1 = append(sel1, v)
		}
		if b == b2 {
			sel2 = append(sel2, v)
		}
	}
	s.sel, s.sel2 = sel1[:0], sel2[:0]
	return selectKth(sel1, k1-rank1), selectKth(sel2, k2-rank2)
}

// histLocate finds the histogram bucket containing the k-th count and
// the number of counts in the buckets before it.
func histLocate(hist *[offHistBins]int32, k int) (rank, bin int) {
	for ; bin < offHistBins; bin++ {
		if rank+int(hist[bin]) > k {
			return rank, bin
		}
		rank += int(hist[bin])
	}
	return rank, offHistBins - 1
}

// selectKth returns the k-th smallest value of v (0-based),
// partitioning v in place (Hoare partition, median-of-three pivot).
func selectKth(v []float64, k int) float64 {
	lo, hi := 0, len(v)-1
	for lo < hi {
		// Median-of-three pivot guards against already-partitioned
		// input (the second select call runs on a partially ordered
		// slice).
		mid := lo + (hi-lo)/2
		if v[mid] < v[lo] {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if v[hi] < v[lo] {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if v[hi] < v[mid] {
			v[hi], v[mid] = v[mid], v[hi]
		}
		pivot := v[mid]
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if v[i] >= pivot {
					break
				}
			}
			for {
				j--
				if v[j] <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			v[i], v[j] = v[j], v[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return v[lo]
}

// analysisPool recycles Analysis values between frames.
// ProcessAnalysis returns each frame's Analysis here after the symbols
// are emitted.
var analysisPool = sync.Pool{New: func() any { return new(Analysis) }}

func getAnalysis() *Analysis {
	a := analysisPool.Get().(*Analysis)
	a.offLevel, a.hasOffLevel = 0, false
	a.bands = a.bands[:0]
	return a
}

func recycleAnalysis(a *Analysis) {
	if a != nil {
		analysisPool.Put(a)
	}
}

// planInto snaps band boundaries to the fitted symbol grid and
// records in a, per band, the color and symbol count, plus the
// frame-adapted OFF threshold. Classification against the live
// calibration references happens later, in classifier.emitSymbolsInto.
func (s *frameScratch) planInto(a *Analysis, bands []band, rowsPerSym float64) {
	if len(s.l) > 0 {
		a.offLevel = s.offLevel()
		a.hasOffLevel = true
	}
	if len(bands) == 0 {
		return
	}
	// The transmitter's symbol clock projects onto the frame as a
	// strictly periodic grid of period rowsPerSym. Fitting the grid
	// phase to ALL detected band boundaries (circular mean of the cut
	// residuals) and snapping every boundary to it makes each band's
	// symbol count robust to individual boundary jitter — a single
	// misplaced cut can no longer shift the rest of the stream.
	fcuts := s.fcuts[:0]
	for _, b := range bands[1:] {
		fcuts = append(fcuts, float64(b.start))
	}
	s.fcuts = fcuts
	phase := fitGridPhase(fcuts, rowsPerSym)
	snap := func(x float64) int {
		return int(math.Round((x - phase) / rowsPerSym))
	}
	for i, b := range bands {
		count := snap(float64(b.end)) - snap(float64(b.start))
		if count < 1 {
			// A band squeezed below one grid cell: at the frame edges
			// it is a partial symbol cut by the readout window (part
			// of the gap loss); in the interior it is a real symbol
			// displaced by boundary jitter.
			if i == 0 || i == len(bands)-1 {
				continue
			}
			count = 1
		}
		a.bands = append(a.bands, plannedBand{lab: b.lab, count: count})
	}
}
