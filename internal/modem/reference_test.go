package modem

import (
	"math"
	"sort"

	"colorbars/internal/camera"
	"colorbars/internal/colorspace"
	"colorbars/internal/packet"
)

// This file is the scalar reference front end, kept as a test oracle
// for the receiver's production front end (columnar.go): each row's
// mean comes from camera.Frame.RowMean and converts to Lab exactly,
// segmentation compares plain CIE76 distances, and the OFF threshold
// takes its percentiles from a full sort. It favors obviousness over
// speed and allocates freely. The golden-frame harness (golden_test.go)
// replays captures through both front ends and pins their agreement.

// stripRow is one scanline reduced to its mean CIELab color.
type stripRow struct {
	lab colorspace.Lab
}

// extractStrip converts a frame to its 1-D CIELab strip: each row's
// pixels are averaged (the paper's dimension reduction) and the mean
// is converted to Lab.
func extractStrip(f *camera.Frame) []stripRow {
	rows := make([]stripRow, f.Rows)
	for r := range rows {
		rows[r] = stripRow{lab: colorspace.LinearRGBToLab(f.RowMean(r))}
	}
	return rows
}

// segmentBands splits the strip at color discontinuities, like
// frameScratch.segment but on plain distances.
func segmentBands(strip []stripRow, rowsPerSym, smearRows float64) []band {
	if len(strip) == 0 {
		return nil
	}
	h := int(smearRows/2 + 1)
	diff := make([]float64, len(strip))
	for i := range strip {
		lo, hi := i-h, i+h
		if lo < 0 || hi >= len(strip) {
			continue
		}
		diff[i] = colorspace.DeltaE(strip[lo].lab, strip[hi].lab)
	}
	minSpacing := int(rowsPerSym / 2)
	if minSpacing < 1 {
		minSpacing = 1
	}
	var cuts []int
	lastCut := -minSpacing
	for i := 1; i+1 < len(diff); i++ {
		if diff[i] >= boundaryTheta && diff[i] >= diff[i-1] && diff[i] > diff[i+1] {
			if i-lastCut >= minSpacing {
				cuts = append(cuts, i)
				lastCut = i
			}
		}
	}
	bounds := append([]int{0}, cuts...)
	bounds = append(bounds, len(strip))
	bands := make([]band, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		b := band{start: bounds[i], end: bounds[i+1]}
		b.lab = bandColor(strip, b, smearRows)
		bands = append(bands, b)
	}
	return mergeSimilarBands(bands)
}

// mergeSimilarBands coalesces adjacent bands whose mean colors sit
// closer than the boundary threshold, width-weighting the merged color.
func mergeSimilarBands(bands []band) []band {
	if len(bands) < 2 {
		return bands
	}
	out := bands[:1]
	for _, b := range bands[1:] {
		prev := &out[len(out)-1]
		if colorspace.DeltaE(prev.lab, b.lab) < boundaryTheta {
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

// bandColor averages the band's central rows, keeping clear of the
// exposure smear at each edge (at least one row is always kept).
func bandColor(strip []stripRow, b band, smearRows float64) colorspace.Lab {
	w := b.width()
	trim := int(math.Max(float64(w)*0.3, smearRows*0.75))
	lo, hi := b.start+trim, b.end-trim
	if lo >= hi {
		mid := (b.start + b.end) / 2
		lo, hi = mid, mid+1
	}
	var sum colorspace.Lab
	for r := lo; r < hi; r++ {
		sum.L += strip[r].lab.L
		sum.A += strip[r].lab.A
		sum.B += strip[r].lab.B
	}
	n := float64(hi - lo)
	return colorspace.Lab{L: sum.L / n, A: sum.A / n, B: sum.B / n}
}

// offLevelFor computes the frame-adapted OFF lightness threshold from
// a full sort of the strip's lightness. The strip must be non-empty.
func offLevelFor(strip []stripRow) float64 {
	ls := make([]float64, len(strip))
	for i, r := range strip {
		ls[i] = r.lab.L
	}
	sort.Float64s(ls)
	p5 := ls[len(ls)/20]
	p75 := ls[len(ls)*3/4]
	spread := p75 - p5
	return math.Max(8, p5+math.Max(5, 0.25*spread))
}

// planBands is planInto on a strip, returning a fresh Analysis.
func planBands(strip []stripRow, bands []band, rowsPerSym float64) *Analysis {
	a := &Analysis{}
	if len(strip) > 0 {
		a.offLevel = offLevelFor(strip)
		a.hasOffLevel = true
	}
	if len(bands) == 0 {
		return a
	}
	var cuts []float64
	for _, b := range bands[1:] {
		cuts = append(cuts, float64(b.start))
	}
	phase := fitGridPhase(cuts, rowsPerSym)
	snap := func(x float64) int {
		return int(math.Round((x - phase) / rowsPerSym))
	}
	for i, b := range bands {
		count := snap(float64(b.end)) - snap(float64(b.start))
		if count < 1 {
			if i == 0 || i == len(bands)-1 {
				continue
			}
			count = 1
		}
		a.bands = append(a.bands, plannedBand{lab: b.lab, count: count})
	}
	return a
}

// emitSymbols is emitSymbolsInto on a fresh slice.
func (c *classifier) emitSymbols(a *Analysis) []packet.RxSymbol {
	return c.emitSymbolsInto(nil, a)
}

// classifyBands plans the bands and classifies each into a run of
// received symbols.
func classifyBands(strip []stripRow, bands []band, rowsPerSym float64, cls *classifier) []packet.RxSymbol {
	return cls.emitSymbols(planBands(strip, bands, rowsPerSym))
}

// frameSymbols runs the whole reference front end on one frame: strip,
// segment, plan and classify. rowsPerSym must be > 0.
func frameSymbols(f *camera.Frame, rowsPerSym float64, cls *classifier) []packet.RxSymbol {
	strip := extractStrip(f)
	bands := segmentBands(strip, rowsPerSym, f.Exposure/f.RowTime)
	return classifyBands(strip, bands, rowsPerSym, cls)
}

// analyzeReference is the reference counterpart of Receiver.Analyze:
// the same Analysis, computed by the scalar front end.
func analyzeReference(rx *Receiver, f *camera.Frame) *Analysis {
	rowsPerSym := 1 / (rx.cfg.SymbolRate * f.RowTime)
	strip := extractStrip(f)
	return planBands(strip, segmentBands(strip, rowsPerSym, f.Exposure/f.RowTime), rowsPerSym)
}
