package rs

import "colorbars/internal/gf256"

// Roots of small error locators (DESIGN.md §17, "Roots of small
// locators"). Berlekamp–Massey's σ has σ_0 = 1, so σ(X⁻¹) = 0 exactly
// when X is a root of the monic reversed polynomial
// P(z) = z^d + σ_1·z^(d−1) + … + σ_d. For d ≤ 3 the standard
// substitutions turn P into y² + y = t or v³ + v = t, whose roots these
// tables hold for every t, so a locator's roots cost a few field
// operations instead of evaluating σ at every codeword position.
var (
	// quadRoot[t] is a root y of y² + y = t; the other is y ⊕ 1. It
	// is 0 when there is none (for t ≠ 0, where 0 is not a root).
	quadRoot [256]byte
	// cubicRoots[t] lists the three distinct roots v of v³ + v = t,
	// ascending, when there are three, and is all zero otherwise (for
	// t ≠ 0, where 0 is not a root).
	cubicRoots [256][3]byte
	// sqrtOf[a] is the square root of a; squaring permutes GF(2^8).
	sqrtOf [256]byte
)

func init() {
	var cubicCount [256]int
	for v := 0; v < 256; v++ {
		b := byte(v)
		sq := gf256.Mul(b, b)
		sqrtOf[sq] = b
		if t := sq ^ b; quadRoot[t] == 0 {
			quadRoot[t] = b
		}
		t := gf256.Mul(sq, b) ^ b
		if cubicCount[t] < 3 {
			cubicRoots[t][cubicCount[t]] = b
		}
		cubicCount[t]++
	}
	for t, k := range cubicCount {
		if k != 3 {
			cubicRoots[t] = [3]byte{}
		}
	}
}

// cubeRootOfUnity is ω = α^85, a primitive cube root of 1 (255 = 3·85).
var cubeRootOfUnity = gf256.Exp(85)

// locatorRoots writes to x the locators X with σ(X⁻¹) = 0 of an error
// locator σ (σ_0 = 1 first, trimmed, degree 1 to 3) and reports
// whether σ has deg(σ) of them, all distinct: the count a Chien search
// over every nonzero field element would find. The roots are nonzero,
// since P(0) = σ_d ≠ 0, and are written in no particular order.
func locatorRoots(sigma []byte, x *[3]byte) bool {
	switch len(sigma) - 1 {
	case 1: // z + σ_1
		x[0] = sigma[1]
		return true
	case 2: // z² + a·z + b; z = a·y gives y² + y = b/a²
		a, b := sigma[1], sigma[2]
		if a == 0 {
			return false // (z + √b)²: one double root
		}
		y := quadRoot[gf256.Div(b, gf256.Mul(a, a))]
		if y == 0 {
			return false
		}
		x[0] = gf256.Mul(a, y)
		x[1] = x[0] ^ a
		return true
	case 3:
		return cubicLocatorRoots(sigma[1], sigma[2], sigma[3], x)
	}
	return false
}

// cubicLocatorRoots is locatorRoots for z³ + a·z² + b·z + c. In
// characteristic 2, z = w + a depresses it to w³ + p·w + q with
// p = a² + b and q = a·b + c.
//   - q = 0: w·(w + √p)² has a repeated root.
//   - p = 0: w³ = q has three roots when q is a cube, none otherwise.
//   - else w = √p·v gives v³ + v = q/p^(3/2).
func cubicLocatorRoots(a, b, c byte, x *[3]byte) bool {
	p := gf256.Mul(a, a) ^ b
	q := gf256.Mul(a, b) ^ c
	if q == 0 {
		return false
	}
	if p == 0 {
		l := gf256.Log(q)
		if l%3 != 0 {
			return false
		}
		w := gf256.Exp(l / 3)
		for i := range x {
			x[i] = w ^ a
			w = gf256.Mul(w, cubeRootOfUnity)
		}
		return true
	}
	s := sqrtOf[p]
	v := &cubicRoots[gf256.Div(q, gf256.Mul(p, s))]
	if v[0] == 0 {
		return false
	}
	row := gf256.MulRow(s)
	for i := range x {
		x[i] = row[v[i]] ^ a
	}
	return true
}
