package modem

import (
	"math"

	"colorbars/internal/colorspace"
	"colorbars/internal/packet"
)

// This file holds the front end's data model — bands, the per-frame
// Analysis and its planned bands — and the classifier that turns band
// colors into OFF / white / data symbols (paper §7, Step 2). The
// frame-to-bands stages live in columnar.go.

// band is a run of rows judged to show a single transmitted symbol
// (or several identical ones).
type band struct {
	start, end int // row range [start, end)
	lab        colorspace.Lab
}

func (b band) width() int { return b.end - b.start }

// boundaryTheta is the minimum windowed color step (ΔE in full Lab)
// that counts as a symbol boundary. It sits above the post-averaging
// noise floor and below the smallest inter-symbol distance of the
// supported constellations; transitions smaller than this merge into
// one band — the inter-symbol-interference failure mode the paper
// observes for high CSK orders at high symbol rates.
const boundaryTheta = 8.0

// classifier turns band colors into symbol kinds.
type classifier struct {
	// offLevel is the lightness below which a band is an OFF symbol.
	offLevel float64
	// whiteAB is the reference {a,b} of the white illumination symbol.
	// Device color matrices preserve white (row-stochastic), so {0,0}
	// holds for every camera.
	whiteAB colorspace.AB
	// dataRefs are the known constellation colors, used to decide
	// white-vs-data by nearest reference. Bootstrapped from the
	// factory constellation and replaced by calibrated colors as
	// calibration packets arrive.
	dataRefs []colorspace.AB
	// whiteMargin is the absolute white radius in the a,b-plane.
	whiteMargin float64
	// offChroma is the maximum a,b-plane chroma of an OFF band.
	offChroma float64

	// neighbors[i] lists, for reference i, the indexes of up to
	// maxMarginNeighbors other references ordered by squared a,b-plane
	// distance — the runner-up candidate set the margin accounting
	// scans instead of the full constellation. For orders ≤ 9 the set
	// holds every other reference, so the CIEDE2000 runner-up search
	// over it is exhaustive; for 16/32-CSK it is a pruned
	// approximation (margins are observability, not decode input).
	neighbors [][]int
	// neighborBuf backs the neighbors sub-slices.
	neighborBuf []int
}

// maxMarginNeighbors bounds the per-reference runner-up candidate set.
const maxMarginNeighbors = 8

func newClassifier() *classifier {
	return &classifier{
		offLevel:    18,
		whiteAB:     colorspace.AB{},
		whiteMargin: 10,
		offChroma:   12,
	}
}

// setDataRefs installs the constellation colors used for
// white-vs-data discrimination and rebuilds the margin runner-up
// tables. Called once per applied calibration packet — the O(k²)
// rebuild (k ≤ 32) is amortized over every symbol classified until
// the next calibration.
func (c *classifier) setDataRefs(refs []colorspace.AB) {
	c.dataRefs = append(c.dataRefs[:0], refs...)

	k := len(refs)
	if cap(c.neighbors) < k {
		c.neighbors = make([][]int, k)
	}
	c.neighbors = c.neighbors[:k]
	if cap(c.neighborBuf) < k*maxMarginNeighbors {
		c.neighborBuf = make([]int, k*maxMarginNeighbors)
	}
	c.neighborBuf = c.neighborBuf[:0]
	for i := 0; i < k; i++ {
		// Insertion sort the other references into a fixed-size
		// nearest-first window.
		var idx [maxMarginNeighbors]int
		var dst [maxMarginNeighbors]float64
		n := 0
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			d := refs[i].DistSq(refs[j])
			if n < maxMarginNeighbors {
				idx[n], dst[n] = j, d
				n++
			} else if d < dst[n-1] {
				idx[n-1], dst[n-1] = j, d
			} else {
				continue
			}
			for p := n - 1; p > 0 && dst[p] < dst[p-1]; p-- {
				idx[p], idx[p-1] = idx[p-1], idx[p]
				dst[p], dst[p-1] = dst[p-1], dst[p]
			}
		}
		start := len(c.neighborBuf)
		c.neighborBuf = append(c.neighborBuf, idx[:n]...)
		c.neighbors[i] = c.neighborBuf[start : start+n]
	}
}

// runnerUps returns the runner-up candidate indexes for reference win
// (empty for out-of-range win or single-point constellations).
func (c *classifier) runnerUps(win int) []int {
	if win < 0 || win >= len(c.neighbors) {
		return nil
	}
	return c.neighbors[win]
}

// classify maps a band color to a received symbol. OFF is decided by
// lightness. White requires BOTH an absolute test — true white always
// lands near {a,b} = {0,0} because sensor color matrices preserve
// gray — and a relative test against the known constellation colors,
// so low-saturation constellation points are not swallowed while
// strongly hue-rotated ones are not mistaken for white.
func (c *classifier) classify(lab colorspace.Lab) packet.RxSymbol {
	// All distance tests compare squared values: squaring is monotone
	// on non-negative distances, so every decision below matches the
	// plain-distance formulation while skipping a Hypot per compare.
	ab := lab.AB()
	// OFF means the LED emitted nothing: the band is both dark and
	// colorless (ambient light only). Checking chroma keeps dim,
	// saturated symbols at vignetted frame edges from reading as OFF.
	if lab.L < c.offLevel && ab.DistSq(colorspace.AB{}) < c.offChroma*c.offChroma {
		return packet.RxSymbol{Kind: packet.KindOff}
	}
	dWhiteSq := ab.DistSq(c.whiteAB)
	if dWhiteSq >= c.whiteMargin*c.whiteMargin {
		return packet.RxSymbol{Kind: packet.KindData, AB: ab}
	}
	dDataSq := math.Inf(1)
	for _, r := range c.dataRefs {
		if d := ab.DistSq(r); d < dDataSq {
			dDataSq = d
		}
	}
	if dWhiteSq < dDataSq {
		return packet.RxSymbol{Kind: packet.KindWhite, AB: ab}
	}
	return packet.RxSymbol{Kind: packet.KindData, AB: ab}
}

// Analysis is the receiver-state-independent part of one frame's
// processing: the planned symbol bands (mean color plus grid-snapped
// symbol count) and the frame-adapted OFF threshold. Everything in it
// is a pure function of the frame and the link configuration — no
// calibration state, no deframer state — which is what lets
// Receiver.Analyze run concurrently across frames while
// Receiver.ProcessAnalysis replays the results in strict capture
// order, with output independent of how the frames were analyzed.
type Analysis struct {
	offLevel    float64
	hasOffLevel bool
	bands       []plannedBand
}

// plannedBand is one segmented band ready for classification: its
// color and how many transmitted symbols it spans on the fitted grid.
type plannedBand struct {
	lab   colorspace.Lab
	count int
}

// emitSymbolsInto classifies a planned frame against the classifier's
// current references, appending to dst. This is the only front-end
// step that depends on mutable receiver state (calibrated data
// references), so it runs on the sequential stage, in capture order.
func (c *classifier) emitSymbolsInto(dst []packet.RxSymbol, a *Analysis) []packet.RxSymbol {
	if a.hasOffLevel {
		c.offLevel = a.offLevel
	}
	for _, b := range a.bands {
		sym := c.classify(b.lab)
		for j := 0; j < b.count; j++ {
			dst = append(dst, sym)
		}
	}
	return dst
}

// fitGridPhase estimates the symbol grid's phase offset from the cut
// positions by a circular mean of their residuals modulo the period.
func fitGridPhase(cuts []float64, period float64) float64 {
	if len(cuts) == 0 {
		return 0
	}
	var sinSum, cosSum float64
	for _, c := range cuts {
		theta := 2 * math.Pi * math.Mod(c, period) / period
		sinSum += math.Sin(theta)
		cosSum += math.Cos(theta)
	}
	if sinSum == 0 && cosSum == 0 {
		return 0
	}
	theta := math.Atan2(sinSum, cosSum)
	if theta < 0 {
		theta += 2 * math.Pi
	}
	return theta * period / (2 * math.Pi)
}
