package modem

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/colorspace"
)

// laneSum is the row sum extractPlanes must reproduce bit for bit on
// every architecture: twelve lanes over the whole 4-pixel groups,
// folded pairwise as the SSE2 kernel folds its registers, then the
// Cols%4 tail left to right.
func laneSum(row []colorspace.RGB) (sr, sg, sb float64) {
	var l [12]float64
	n := len(row) / 4 * 4
	for i := 0; i < n; i += 4 {
		for k := 0; k < 4; k++ {
			l[3*k] += row[i+k].R
			l[3*k+1] += row[i+k].G
			l[3*k+2] += row[i+k].B
		}
	}
	sr = (l[0] + l[6]) + (l[3] + l[9])
	sg = (l[1] + l[7]) + (l[4] + l[10])
	sb = (l[2] + l[8]) + (l[5] + l[11])
	for _, p := range row[n:] {
		sr += p.R
		sg += p.G
		sb += p.B
	}
	return sr, sg, sb
}

// TestSumPix12MatchesScalar pins the row-sum kernel bit for bit
// against laneSum's scalar twelve-lane fold for random pixel data at
// several widths.
func TestSumPix12MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, cols := range []int{4, 8, 24, 96, 400} {
		for trial := 0; trial < 50; trial++ {
			px := make([]colorspace.RGB, cols)
			for i := range px {
				px[i] = colorspace.RGB{
					R: rng.Float64() * 255,
					G: rng.Float64() * 255,
					B: rng.Float64() * 255,
				}
			}
			wr, wg, wb := laneSum(px)
			gr, gg, gb := sumPix12(&px[0], cols/4)
			if gr != wr || gg != wg || gb != wb {
				t.Fatalf("cols=%d trial=%d: kernel (%v,%v,%v) vs fold (%v,%v,%v)",
					cols, trial, gr, gg, gb, wr, wg, wb)
			}
		}
	}
}

// TestExtractPlanesBitExact pins extractPlanes' Lab planes bit for bit
// against the LUT conversion of laneSum's row means, on a seeded
// synthetic frame at the built-in profiles' widths (24 and 8) and at
// a width with a Cols%4 tail (7). The planes then cannot depend on the
// architecture: the amd64 kernel and the portable fold both match
// laneSum.
func TestExtractPlanesBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const rows = 64
	for _, cols := range []int{24, 8, 7} {
		f := &camera.Frame{Rows: rows, Cols: cols, Pix: make([]colorspace.RGB, rows*cols)}
		for i := range f.Pix {
			f.Pix[i] = colorspace.RGB{R: rng.Float64(), G: rng.Float64(), B: rng.Float64()}
		}
		s := getScratch(rows)
		s.extractPlanes(f)
		inv := 1 / float64(cols)
		for r := 0; r < rows; r++ {
			sr, sg, sb := laneSum(f.Pix[r*cols : (r+1)*cols])
			want := colorspace.LinearRGBToLabFast(colorspace.RGB{R: sr * inv, G: sg * inv, B: sb * inv})
			if s.l[r] != want.L || s.a[r] != want.A || s.bb[r] != want.B {
				t.Fatalf("cols=%d row %d: planes (%v, %v, %v), want (%v, %v, %v)",
					cols, r, s.l[r], s.a[r], s.bb[r], want.L, want.A, want.B)
			}
		}
		putScratch(s)
	}
}

// TestSumPix12Signs exercises negative and denormal-free edge values
// through the kernel (the Lab planes can go negative after white
// subtraction elsewhere; the kernel must be sign-agnostic).
func TestSumPix12Signs(t *testing.T) {
	px := make([]colorspace.RGB, 8)
	for i := range px {
		v := float64(i - 4)
		px[i] = colorspace.RGB{R: v, G: -v, B: v * 0.5}
	}
	r, g, b := sumPix12(&px[0], 2)
	if r != -4 || g != 4 || b != -2 {
		t.Fatalf("got (%g,%g,%g), want (-4,4,-2)", r, g, b)
	}
}

// TestOrderStatExact pins the histogram-guided selection against a
// full sort: the k-th order statistic must be the sorted value
// exactly, across uniform, clustered, and constant planes.
func TestOrderStatExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []func() float64{
		func() float64 { return rng.Float64() * 100 },
		func() float64 { return 42 + rng.NormFloat64()*0.01 },
		func() float64 { return 13.5 },
		func() float64 { return math.Floor(rng.Float64()*4) * 25 },
	}
	for si, gen := range shapes {
		for _, n := range []int{1, 2, 7, 100, 3264} {
			s := getScratch(n)
			for i := range s.l {
				s.l[i] = gen()
			}
			sorted := append([]float64(nil), s.l...)
			sort.Float64s(sorted)
			ks := []int{0, n / 20, n / 2, n * 3 / 4, n - 1}
			// Every rank pair, both as the low and the high selection,
			// including equal ranks and pairs landing in one bucket.
			for _, k1 := range ks {
				for _, k2 := range ks {
					if k1 > k2 {
						continue
					}
					g1, g2 := s.orderStat2(k1, k2)
					if g1 != sorted[k1] || g2 != sorted[k2] {
						t.Fatalf("shape %d n=%d k=(%d,%d): got (%v,%v) want (%v,%v)",
							si, n, k1, k2, g1, g2, sorted[k1], sorted[k2])
					}
				}
			}
			putScratch(s)
		}
	}
}
