package modem

import (
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/colorspace"
)

// FuzzStripSegment drives the receiver's production segmentation —
// frameScratch.segment, planInto and emitSymbolsInto — with arbitrary
// Lab planes and grid geometries. Frames reach it from outside the
// process (the ingest service decodes wire frames), so none of it may
// panic on the degenerate corners the fuzzer owns: every planned band
// must span at least one symbol, and the classifier must emit exactly
// the planned symbol count. Agreement with the reference front end is
// not required here: a square-versus-root compare can resolve a
// razor-edge threshold differently (the golden harness pins agreement
// on realistic captures).
func FuzzStripSegment(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{16, 8})
	f.Add([]byte{16, 8, 200, 10, 10, 200, 12, 12, 30, 1, 1, 200, 120, 120})
	// One-row strip: a single band with no interior boundaries.
	f.Add([]byte{16, 8, 200, 10, 10})
	// All-off frame: every row below any plausible OFF threshold, so
	// segmentation sees a flat dark strip and classification must emit
	// only OFF symbols without dividing by a zero spread.
	f.Add([]byte{16, 8, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0})
	// Width-1 bands: rowsPerSym below one row with a hard color flip on
	// every row, so each band is a single row and the grid fitter sees
	// count≈1 everywhere.
	f.Add([]byte{0, 0, 200, 60, 10, 200, 196, 246, 200, 60, 10, 200, 196, 246, 200, 60, 10, 200, 196, 246})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rowsPerSym, expRows float64 = 1, 0
		if len(data) >= 2 {
			rowsPerSym = 0.5 + float64(data[0])/8 // [0.5, ~32.4]
			expRows = float64(data[1]) / 16
			data = data[2:]
		}
		s := getScratch(len(data) / 3)
		defer putScratch(s)
		for r := range s.l {
			s.l[r] = float64(data[3*r]) / 255 * 100
			s.a[r] = float64(int8(data[3*r+1]))
			s.bb[r] = float64(int8(data[3*r+2]))
		}
		a := getAnalysis()
		defer recycleAnalysis(a)
		s.planInto(a, s.segment(rowsPerSym, expRows), rowsPerSym)
		want := 0
		for i, b := range a.bands {
			if b.count < 1 {
				t.Fatalf("band %d of %d planned with count %d", i, len(a.bands), b.count)
			}
			want += b.count
		}
		if syms := newClassifier().emitSymbolsInto(nil, a); len(syms) != want {
			t.Fatalf("emitted %d symbols for %d planned", len(syms), want)
		}
	})
}

// FuzzFrontEndDifferential pins the production front end's plane
// extraction (packed row sum + LUT conversion) against the scalar
// reference (RowMean + exact LinearRGBToLab) on arbitrary frames.
// For any pixel content in [0,1]³ and any geometry — including widths
// below one 4-pixel group and widths with a Cols%4 tail — the per-row
// Lab values must agree within the documented LUT ceiling. This is the
// property-level sibling of the golden-frame harness: the harness
// proves symbol/block equality on realistic captures, this target
// hands the adversarial geometries to the fuzzer.
func FuzzFrontEndDifferential(f *testing.F) {
	f.Add(uint8(24), []byte{})
	// 2×4 frame on the kernel path.
	f.Add(uint8(4), []byte{
		200, 10, 10, 200, 10, 10, 200, 10, 10, 200, 10, 10,
		10, 200, 10, 10, 200, 10, 10, 200, 10, 10, 200, 10,
	})
	// Width 1 is all tail; width 7 is one group plus a tail.
	f.Add(uint8(1), []byte{255, 0, 128, 0, 255, 3})
	f.Add(uint8(7), []byte{90, 90, 90, 0, 0, 0, 255, 255, 255, 1, 2, 3, 40, 50, 60, 200, 10, 10, 5, 5, 5, 9, 9, 9, 77, 77, 77})
	f.Fuzz(func(t *testing.T, cols8 uint8, data []byte) {
		cols := 1 + int(cols8)%32
		rows := len(data) / (3 * cols)
		if rows == 0 {
			return
		}
		if rows > 256 {
			rows = 256
		}
		pix := make([]colorspace.RGB, rows*cols)
		for i := range pix {
			pix[i] = colorspace.RGB{
				R: float64(data[i*3]) / 255,
				G: float64(data[i*3+1]) / 255,
				B: float64(data[i*3+2]) / 255,
			}
		}
		fr := &camera.Frame{Rows: rows, Cols: cols, Pix: pix, Exposure: 1e-4, RowTime: 1e-5}

		s := getScratch(rows)
		s.extractPlanes(fr)
		strip := extractStrip(fr)
		for r := 0; r < rows; r++ {
			exact := strip[r].lab
			fast := colorspace.Lab{L: s.l[r], A: s.a[r], B: s.bb[r]}
			if d := colorspace.DeltaE2000(exact, fast); !(d <= colorspace.LUTMaxDeltaE2000) {
				t.Fatalf("row %d (%dx%d): fast %+v vs exact %+v diverge by ΔE %g",
					r, rows, cols, fast, exact, d)
			}
		}
		putScratch(s)
	})
}
