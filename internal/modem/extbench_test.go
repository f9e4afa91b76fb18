package modem

import (
	"testing"

	"colorbars/internal/csk"
)

func BenchmarkExtractPlanes(b *testing.B) {
	_, frames := allocLink(b, csk.CSK8, 2000)
	s := getScratch(frames[0].Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.extractPlanes(frames[i%len(frames)])
	}
}

func BenchmarkSumPix12PerRow(b *testing.B) {
	_, frames := allocLink(b, csk.CSK8, 2000)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frames[i%len(frames)]
		groups := f.Cols / 4
		for r := 0; r < f.Rows; r++ {
			sr, sg, sb := sumPix12(&f.Pix[r*f.Cols], groups)
			sink += sr + sg + sb
		}
	}
	_ = sink
}
