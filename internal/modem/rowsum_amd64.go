//go:build amd64

package modem

import (
	"unsafe"

	"colorbars/internal/colorspace"
)

// The kernel indexes raw struct memory, so the colorspace.RGB layout
// it assumes — three consecutive float64 fields R, G, B — is pinned
// at compile time.
var (
	_ [unsafe.Sizeof(colorspace.RGB{}) - 24]byte
	_ [24 - unsafe.Sizeof(colorspace.RGB{})]byte
	_ [unsafe.Offsetof(colorspace.RGB{}.G) - 8]byte
	_ [unsafe.Offsetof(colorspace.RGB{}.B) - 16]byte
)

// sumPix12 sums the R, G and B channels of groups*4 consecutive
// pixels starting at p. The packed adds re-associate the reduction
// exactly as rowsum_generic.go's twelve-lane fold does, so the two are
// bit-identical; both can differ in low-order bits from a strict
// left-to-right fold.
//
//go:noescape
func sumPix12(p *colorspace.RGB, groups int) (sr, sg, sb float64)
