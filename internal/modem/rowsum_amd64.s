// SSE2 row-sum kernel for the columnar front end. amd64 always has
// SSE2, so no runtime feature detection is needed.
//
// Pixels are colorspace.RGB structs — three consecutive float64s — so
// a group of 4 pixels is 12 floats whose channel index cycles with
// period 3. Summing the 6 float pairs into 6 packed accumulators
// keeps the channel phase of each accumulator fixed across groups:
//
//	X0 += [c0 c1]   X1 += [c2 c0]   X2 += [c1 c2]
//	X3 += [c0 c1]   X4 += [c2 c0]   X5 += [c1 c2]
//
// After folding X3..X5 into X0..X2 the three channel sums are
// recovered from four scalar adds.

#include "textflag.h"

// func sumPix12(p *colorspace.RGB, groups int) (sr, sg, sb float64)
TEXT ·sumPix12(SB), NOSPLIT, $0-40
	MOVQ  p+0(FP), SI
	MOVQ  groups+8(FP), CX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5

loop:
	TESTQ CX, CX
	JLE   done
	PREFETCHT0 384(SI)
	MOVUPD 0(SI), X8
	MOVUPD 16(SI), X9
	MOVUPD 32(SI), X10
	MOVUPD 48(SI), X11
	MOVUPD 64(SI), X12
	MOVUPD 80(SI), X13
	ADDPD  X8, X0
	ADDPD  X9, X1
	ADDPD  X10, X2
	ADDPD  X11, X3
	ADDPD  X12, X4
	ADDPD  X13, X5
	ADDQ   $96, SI
	DECQ   CX
	JMP    loop

done:
	ADDPD X3, X0
	ADDPD X4, X1
	ADDPD X5, X2

	// X0 = [r_a g_a], X1 = [b_a r_b], X2 = [g_b b_b]
	MOVAPD   X0, X6
	UNPCKHPD X6, X6 // X6 = [g_a g_a]
	MOVAPD   X1, X7
	UNPCKHPD X7, X7 // X7 = [r_b r_b]
	MOVAPD   X2, X8
	UNPCKHPD X8, X8 // X8 = [b_b b_b]

	ADDSD X7, X0 // r = r_a + r_b
	ADDSD X2, X6 // g = g_a + g_b
	ADDSD X8, X1 // b = b_a + b_b

	MOVSD X0, sr+16(FP)
	MOVSD X6, sg+24(FP)
	MOVSD X1, sb+32(FP)
	RET
