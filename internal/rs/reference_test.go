package rs

import (
	"fmt"

	"colorbars/internal/gf256"
)

// The allocating textbook decode pipeline: Horner evaluation and
// convolution through gf256.Mul, fresh slices at every step, and no
// power or product tables. The table-driven Decoder must agree with
// it on every input (FuzzRSDecode, TestPropertyMatchesReference); no
// production code calls it.

// referenceDecode is Decoder.Decode on the reference pipeline: the
// same checks in the same order, so the two return the same bytes,
// leave the same codeword and fail with the same error.
func (c *Code) referenceDecode(codeword []byte, erasures []int) ([]byte, error) {
	if len(codeword) != c.n {
		return nil, fmt.Errorf("rs: codeword length %d, want %d", len(codeword), c.n)
	}
	for _, e := range erasures {
		if e < 0 || e >= c.n {
			return nil, fmt.Errorf("rs: erasure position %d out of range [0,%d)", e, c.n)
		}
	}
	if len(erasures) > c.n-c.k {
		return nil, ErrTooManyErrors
	}
	synd := c.syndromes(codeword)
	if allZero(synd) {
		return codeword[:c.k], nil
	}
	gamma := []byte{1}
	for _, pos := range erasures {
		gamma = gf256.PolyMul(gamma, []byte{1, gf256.Exp(c.n - 1 - pos)})
	}
	sigma, err := berlekampMassey(c.forneySyndromes(synd, gamma), len(erasures), c.n-c.k)
	if err != nil {
		return nil, err
	}
	loc := gf256.PolyMul(gamma, sigma)
	positions, err := c.chienSearch(loc)
	if err != nil {
		return nil, err
	}
	if err := c.forneyCorrect(codeword, synd, loc, positions); err != nil {
		return nil, err
	}
	if !allZero(c.syndromes(codeword)) {
		return nil, ErrTooManyErrors
	}
	return codeword[:c.k], nil
}

// syndromes returns S_j = r(α^j) for j in [0, n−k).
func (c *Code) syndromes(codeword []byte) []byte {
	synd := make([]byte, c.n-c.k)
	for j := range synd {
		synd[j] = gf256.PolyEval(codeword, gf256.Exp(j))
	}
	return synd
}

// forneySyndromes multiplies the syndrome polynomial by the erasure
// locator, truncated to n−k terms. Syndromes are stored lowest order
// first (S_0 … S_{2t−1}).
func (c *Code) forneySyndromes(synd, gamma []byte) []byte {
	out := make([]byte, len(synd))
	for j := range out {
		var s byte
		for i := 0; i < len(gamma) && i <= j; i++ {
			s ^= gf256.Mul(gamma[i], synd[j-i])
		}
		out[j] = s
	}
	return out
}

// berlekampMassey finds the error-locator polynomial (lowest degree
// first: σ(x) = 1 + σ1·x + …) from the (modified) syndromes. numEras
// erasures have already been accounted for; the number of additional
// errors ν must satisfy 2ν + numEras ≤ 2t.
func berlekampMassey(synd []byte, numEras, twoT int) ([]byte, error) {
	sigma := []byte{1}
	prev := []byte{1}
	var l int
	var m = 1
	var b byte = 1
	for i := 0; i < twoT-numEras; i++ {
		n := i + numEras
		// Discrepancy δ = S_n + Σ σ_j · S_{n−j}.
		delta := synd[n]
		for j := 1; j <= l && j < len(sigma); j++ {
			delta ^= gf256.Mul(sigma[j], synd[n-j])
		}
		if delta == 0 {
			m++
			continue
		}
		if 2*l <= i {
			tmp := append([]byte(nil), sigma...)
			coef := gf256.Div(delta, b)
			sigma = polySubShifted(sigma, prev, coef, m)
			prev = tmp
			l = i + 1 - l
			b = delta
			m = 1
		} else {
			coef := gf256.Div(delta, b)
			sigma = polySubShifted(sigma, prev, coef, m)
			m++
		}
	}
	// Degree check: locator degree must equal l and fit capability.
	deg := len(sigma) - 1
	for deg > 0 && sigma[deg] == 0 {
		deg--
	}
	if 2*deg+numEras > twoT {
		return nil, ErrTooManyErrors
	}
	return sigma[:deg+1], nil
}

// polySubShifted returns sigma − coef·x^shift·prev with lowest-first
// ordering (subtraction is XOR).
func polySubShifted(sigma, prev []byte, coef byte, shift int) []byte {
	out := make([]byte, max(len(sigma), len(prev)+shift))
	copy(out, sigma)
	for i, c := range prev {
		out[i+shift] ^= gf256.Mul(c, coef)
	}
	return out
}

// chienSearch finds codeword positions whose locator roots match.
// loc is lowest-degree-first. Returns positions sorted ascending.
func (c *Code) chienSearch(loc []byte) ([]int, error) {
	deg := len(loc) - 1
	for deg > 0 && loc[deg] == 0 {
		deg--
	}
	loc = loc[:deg+1]
	var positions []int
	for i := 0; i < c.n; i++ {
		// Position i has locator X_i = α^(n−1−i); it is an error
		// position iff σ(X_i^{-1}) == 0.
		xInv := gf256.Exp(-(c.n - 1 - i))
		var v byte
		for j := deg; j >= 0; j-- {
			v = gf256.Mul(v, xInv) ^ loc[j]
		}
		if v == 0 {
			positions = append(positions, i)
		}
	}
	if len(positions) != deg {
		return nil, ErrTooManyErrors
	}
	return positions, nil
}

// forneyCorrect computes error magnitudes with Forney's algorithm and
// repairs the codeword in place.
func (c *Code) forneyCorrect(codeword, synd, loc []byte, positions []int) error {
	// Error evaluator Ω(x) = S(x)·σ(x) mod x^(2t), lowest-first.
	twoT := c.n - c.k
	omega := make([]byte, twoT)
	for i := 0; i < twoT; i++ {
		var s byte
		for j := 0; j < len(loc) && j <= i; j++ {
			s ^= gf256.Mul(loc[j], synd[i-j])
		}
		omega[i] = s
	}
	// Formal derivative σ'(x): odd-power coefficients shifted down.
	deriv := make([]byte, 0, len(loc)/2)
	for i := 1; i < len(loc); i += 2 {
		deriv = append(deriv, loc[i])
	}
	for _, pos := range positions {
		x := gf256.Exp(c.n - 1 - pos)
		xInv := gf256.Inv(x)
		// Ω(X^{-1})
		var num byte
		for i := len(omega) - 1; i >= 0; i-- {
			num = gf256.Mul(num, xInv) ^ omega[i]
		}
		// σ'(X^{-1}) — derivative has only even powers of xInv left:
		// σ'(x) evaluated at xInv over the compacted coefficients uses
		// xInv^2 steps.
		x2 := gf256.Mul(xInv, xInv)
		var den byte
		for i := len(deriv) - 1; i >= 0; i-- {
			den = gf256.Mul(den, x2) ^ deriv[i]
		}
		if den == 0 {
			return ErrTooManyErrors
		}
		mag := gf256.Mul(num, gf256.Inv(den))
		// Forney: e = X·Ω(X^{-1})/σ'(X^{-1}) for the b=0 syndrome
		// convention (first consecutive root α^0).
		mag = gf256.Mul(mag, x)
		codeword[pos] ^= mag
	}
	return nil
}
