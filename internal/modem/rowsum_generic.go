//go:build !amd64

package modem

import (
	"unsafe"

	"colorbars/internal/colorspace"
)

// sumPix12 is the portable counterpart of the amd64 kernel: channel
// sums over groups*4 consecutive pixels. Twelve lane accumulators
// reproduce the packed registers' association order exactly, so the
// result is bit-for-bit the assembly's.
func sumPix12(p *colorspace.RGB, groups int) (sr, sg, sb float64) {
	flat := unsafe.Slice((*float64)(unsafe.Pointer(p)), groups*12)
	var l [12]float64
	for i := 0; i+11 < len(flat); i += 12 {
		for k := 0; k < 12; k++ {
			l[k] += flat[i+k]
		}
	}
	sr = (l[0] + l[6]) + (l[3] + l[9])
	sg = (l[1] + l[7]) + (l[4] + l[10])
	sb = (l[2] + l[8]) + (l[5] + l[11])
	return sr, sg, sb
}
