// Package gf256 implements arithmetic over the finite field GF(2^8)
// with the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the
// field Reed-Solomon codes are usually defined over and the one this
// repository's RS codec uses.
//
// Elements are bytes; addition is XOR; multiplication is carried out
// through log/antilog tables built at package init. A full 64 KB
// product table (MulRow) serves hot loops that multiply many
// independent pairs, such as the RS decoder's syndrome and Chien
// passes: each product is one load, with no zero test and no
// dependency on the previous product.
package gf256

// Poly is the primitive polynomial generating the field.
const Poly = 0x11d

var (
	expTable [512]byte      // exp[i] = α^i, doubled so Mul can skip a mod
	logTable [256]byte      // log[x] = i such that α^i == x; log[0] unused
	mulTable [256][256]byte // mulTable[a][b] = a·b
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			mulTable[a][b] = expTable[int(logTable[a])+int(logTable[b])]
		}
	}
}

// Add returns a + b in GF(2^8). Subtraction is identical.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a · b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// MulRow returns the row of the product table for a: MulRow(a)[b] ==
// Mul(a, b) for every b. Callers must not modify it.
func MulRow(a byte) *[256]byte { return &mulTable[a] }

// Div returns a / b in GF(2^8). Division by zero panics, mirroring the
// behaviour of integer division.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. Inverting zero panics.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns α^n for any integer n (negative allowed).
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return expTable[n]
}

// Log returns the discrete logarithm of a (base α). Log of zero
// panics since it is undefined.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return int(logTable[a])
}

// Pow returns a^n.
func Pow(a byte, n int) byte {
	if a == 0 {
		if n == 0 {
			return 1
		}
		return 0
	}
	l := (int(logTable[a]) * n) % 255
	if l < 0 {
		l += 255
	}
	return expTable[l]
}

// --- polynomial arithmetic (coefficients ordered from highest degree
// to lowest, matching conventional RS literature) ---

// PolyScale multiplies every coefficient of p by k.
func PolyScale(p []byte, k byte) []byte {
	out := make([]byte, len(p))
	for i, c := range p {
		out[i] = Mul(c, k)
	}
	return out
}

// PolyAdd returns p + q.
func PolyAdd(p, q []byte) []byte {
	out := make([]byte, max(len(p), len(q)))
	copy(out[len(out)-len(p):], p)
	for i, c := range q {
		out[len(out)-len(q)+i] ^= c
	}
	return out
}

// PolyMul returns p · q.
func PolyMul(p, q []byte) []byte {
	out := make([]byte, len(p)+len(q)-1)
	for i, a := range p {
		if a == 0 {
			continue
		}
		for j, b := range q {
			out[i+j] ^= Mul(a, b)
		}
	}
	return out
}

// PolyEval evaluates p at x using Horner's method.
func PolyEval(p []byte, x byte) byte {
	var y byte
	for _, c := range p {
		y = Mul(y, x) ^ c
	}
	return y
}

// PolyDivMod returns the quotient and remainder of p / q using
// synthetic division. q must be nonzero with a nonzero leading
// coefficient.
func PolyDivMod(p, q []byte) (quot, rem []byte) {
	if len(q) == 0 || q[0] == 0 {
		panic("gf256: division by zero polynomial")
	}
	if len(p) < len(q) {
		return nil, append([]byte(nil), p...)
	}
	out := append([]byte(nil), p...)
	lead := q[0]
	for i := 0; i <= len(p)-len(q); i++ {
		out[i] = Div(out[i], lead)
		if c := out[i]; c != 0 {
			for j := 1; j < len(q); j++ {
				out[i+j] ^= Mul(q[j], c)
			}
		}
	}
	sep := len(p) - len(q) + 1
	return out[:sep], out[sep:]
}
