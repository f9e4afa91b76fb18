package rs

import (
	"fmt"

	"colorbars/internal/gf256"
)

// Decoder is a scratch-carrying decoder for one Code: every working
// polynomial the decode pipeline needs (syndromes, locators, the
// error evaluator) lives in reusable buffers, so steady-state Decode
// calls perform no heap allocation. A Decoder is not safe for
// concurrent use; create one per goroutine (they are cheap).
//
// Code.Decode delegates here through a throwaway Decoder, so both
// entry points run the same pipeline and produce identical results:
// every step is exact GF(2^8) arithmetic, independent of buffer
// reuse.
//
// Every polynomial evaluation — both syndrome passes, the Chien
// search and Forney's numerator and denominator — is a sum of
// products, each one load from the code's power tables and one from
// gf256's product table. The products are independent of each other,
// unlike a Horner chain, where each step waits on the previous
// multiply. The sums are the same field elements Horner computes, so
// the result is bit-identical (DESIGN.md §17).
type Decoder struct {
	c *Code

	synd, verify     []byte
	gamma            []byte
	fsynd            []byte
	sigma, prev, tmp []byte
	loc              []byte
	omega, deriv     []byte
	positions        []int
	erased           []bool // per position; all false between calls
}

// NewDecoder returns a decoder with scratch sized for the code.
func (c *Code) NewDecoder() *Decoder {
	twoT := c.n - c.k
	return &Decoder{
		c:         c,
		synd:      make([]byte, twoT),
		verify:    make([]byte, twoT),
		gamma:     make([]byte, 0, twoT+1),
		fsynd:     make([]byte, twoT),
		sigma:     make([]byte, 0, twoT+2),
		prev:      make([]byte, 0, twoT+2),
		tmp:       make([]byte, 0, twoT+2),
		loc:       make([]byte, 0, 2*twoT+2),
		omega:     make([]byte, twoT),
		deriv:     make([]byte, 0, twoT+1),
		positions: make([]int, 0, twoT),
		erased:    make([]bool, c.n),
	}
}

// Decode corrects a received codeword in place and returns the k data
// bytes (a prefix of the codeword slice). Semantics match Code.Decode
// exactly; see there for the erasure contract.
func (d *Decoder) Decode(codeword []byte, erasures []int) ([]byte, error) {
	c := d.c
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

	c.syndromesInto(d.synd, codeword)
	if allZero(d.synd) {
		return codeword[:c.k], nil
	}

	// Erasure locator Γ(x) = Π (1 + X_i·x), built by in-place binomial
	// multiplication (descending index keeps each step reading
	// pre-update coefficients) — the same convolution PolyMul computes.
	g := append(d.gamma[:0], 1)
	for _, pos := range erasures {
		row := gf256.MulRow(gf256.Exp(c.n - 1 - pos))
		g = append(g, 0)
		for i := len(g) - 1; i >= 1; i-- {
			g[i] ^= row[g[i-1]]
		}
	}
	d.gamma = g

	// Modified (Forney) syndromes: Ξ(x) = Γ(x)·S(x) mod x^(n−k).
	// Berlekamp–Massey reads only Ξ_j for j ≥ the erasure count, so
	// only those are formed.
	for j := len(erasures); j < len(d.fsynd); j++ {
		var s byte
		for i := 0; i < len(g) && i <= j; i++ {
			s ^= gf256.MulRow(g[i])[d.synd[j-i]]
		}
		d.fsynd[j] = s
	}

	errLoc, err := d.berlekampMassey(d.fsynd, len(erasures), c.n-c.k)
	if err != nil {
		return nil, err
	}
	positions, err := d.chienSearch(errLoc, erasures)
	if err != nil {
		return nil, err
	}

	// Combined locator loc = Γ·σ (plain convolution into scratch).
	loc := d.loc[:0]
	for i := 0; i < len(g)+len(errLoc)-1; i++ {
		var s byte
		for j := 0; j < len(g) && j <= i; j++ {
			if i-j < len(errLoc) {
				s ^= gf256.MulRow(g[j])[errLoc[i-j]]
			}
		}
		loc = append(loc, s)
	}
	d.loc = loc

	if err := d.forneyCorrect(codeword, d.synd, loc, positions); err != nil {
		return nil, err
	}
	// Re-verify: a miscorrection leaves nonzero syndromes.
	c.syndromesInto(d.verify, codeword)
	if !allZero(d.verify) {
		return nil, ErrTooManyErrors
	}
	return codeword[:c.k], nil
}

// syndromesInto fills synd with S_j = r(α^j) = Σ_i r_i·X_i^j, two
// syndromes per pass over the codeword.
func (c *Code) syndromesInto(synd, codeword []byte) {
	n := c.n
	codeword = codeword[:n]
	j := 0
	for ; j+1 < len(synd); j += 2 {
		pw0 := c.synPow[j*n : j*n+n]
		pw1 := c.synPow[(j+1)*n : (j+1)*n+n]
		var s0, s1 byte
		for i, r := range codeword {
			row := gf256.MulRow(r)
			s0 ^= row[pw0[i]]
			s1 ^= row[pw1[i]]
		}
		synd[j], synd[j+1] = s0, s1
	}
	if j < len(synd) {
		pw := c.synPow[j*n : j*n+n]
		var s byte
		for i, r := range codeword {
			s ^= gf256.MulRow(r)[pw[i]]
		}
		synd[j] = s
	}
}

// berlekampMassey is the textbook Berlekamp–Massey on the decoder's
// scratch buffers: polynomial updates write in place (with a swap for
// the length-change case) instead of allocating.
func (d *Decoder) berlekampMassey(synd []byte, numEras, twoT int) ([]byte, error) {
	sigma := append(d.sigma[:0], 1)
	prev := append(d.prev[:0], 1)
	tmp := d.tmp[:0]
	var l int
	var m = 1
	var b byte = 1
	for i := 0; i < twoT-numEras; i++ {
		n := i + numEras
		delta := synd[n]
		for j := 1; j <= l && j < len(sigma); j++ {
			delta ^= gf256.MulRow(sigma[j])[synd[n-j]]
		}
		if delta == 0 {
			m++
			continue
		}
		coef := gf256.Div(delta, b)
		if 2*l <= i {
			tmp = append(tmp[:0], sigma...)
			sigma = subShiftedInPlace(sigma, prev, coef, m)
			prev, tmp = tmp, prev
			l = i + 1 - l
			b = delta
			m = 1
		} else {
			sigma = subShiftedInPlace(sigma, prev, coef, m)
			m++
		}
	}
	d.sigma, d.prev, d.tmp = sigma, prev, tmp
	deg := len(sigma) - 1
	for deg > 0 && sigma[deg] == 0 {
		deg--
	}
	if 2*deg+numEras > twoT {
		return nil, ErrTooManyErrors
	}
	return sigma[:deg+1], nil
}

// subShiftedInPlace computes sigma ^= coef·x^shift·prev, extending
// sigma with zeros as needed. sigma and prev must not alias.
func subShiftedInPlace(sigma, prev []byte, coef byte, shift int) []byte {
	for len(sigma) < len(prev)+shift {
		sigma = append(sigma, 0)
	}
	row := gf256.MulRow(coef)
	for i, c := range prev {
		sigma[i+shift] ^= row[c]
	}
	return sigma
}

// chienSearch finds the codeword positions whose inverse locator is a
// root of the combined locator loc = Γ·σ, ascending, into scratch, and
// fails unless their count equals deg(loc) = len(erasures) + deg(σ)
// (Γ's leading coefficient is the product of the erasure locators and
// σ comes back trimmed, so neither product term vanishes).
//
// Γ's roots are exactly the erased positions, and a field has no zero
// divisors, so position i is a root of loc iff it is erased or a root
// of σ. Only σ is evaluated, and its degree is at most half the parity
// the erasures leave, so invPow's rows cover it. A repeated erasure
// is one position but two degrees of Γ, so it fails the count, as a
// double root does in the search over loc.
func (d *Decoder) chienSearch(sigma []byte, erasures []int) ([]int, error) {
	c := d.c
	erased := d.erased
	for _, e := range erasures {
		erased[e] = true
	}
	w := c.n - c.k
	positions := d.positions[:0]
	for i := 0; i < c.n; i++ {
		if erased[i] {
			positions = append(positions, i)
			continue
		}
		pw := c.invPow[i*w : i*w+len(sigma)]
		var v byte
		for j, s := range sigma {
			v ^= gf256.MulRow(s)[pw[j]]
		}
		if v == 0 {
			positions = append(positions, i)
		}
	}
	for _, e := range erasures {
		erased[e] = false
	}
	d.positions = positions
	if len(positions) != len(erasures)+len(sigma)-1 {
		return nil, ErrTooManyErrors
	}
	return positions, nil
}

// forneyCorrect computes error magnitudes with Forney's algorithm and
// repairs the codeword in place, position by position.
func (d *Decoder) forneyCorrect(codeword, synd, loc []byte, positions []int) error {
	c := d.c
	twoT := c.n - c.k
	// Error evaluator Ω(x) = S(x)·σ(x) mod x^(2t), lowest-first.
	omega := d.omega[:twoT]
	for i := 0; i < twoT; i++ {
		var s byte
		for j := 0; j < len(loc) && j <= i; j++ {
			s ^= gf256.MulRow(loc[j])[synd[i-j]]
		}
		omega[i] = s
	}
	// Formal derivative σ'(x): the odd-power coefficients, shifted
	// down, leave only even powers of x; deriv[i] multiplies x^(2i).
	deriv := d.deriv[:0]
	for i := 1; i < len(loc); i += 2 {
		deriv = append(deriv, loc[i])
	}
	d.deriv = deriv
	for _, pos := range positions {
		// pw[j] = X^(−j) for j < n−k: Ω has n−k coefficients, and σ'
		// reaches X^(−2i) with 2i ≤ deg(loc)−1 < n−k.
		pw := c.invPow[pos*twoT : pos*twoT+twoT]
		var num byte // Ω(X^(−1))
		for i, o := range omega {
			num ^= gf256.MulRow(o)[pw[i]]
		}
		var den byte // σ'(X^(−1))
		for i, dv := range deriv {
			den ^= gf256.MulRow(dv)[pw[2*i]]
		}
		if den == 0 {
			return ErrTooManyErrors
		}
		// Forney: e = X·Ω(X^{-1})/σ'(X^{-1}) for the b=0 syndrome
		// convention (first consecutive root α^0).
		mag := gf256.Mul(num, gf256.Inv(den))
		mag = gf256.Mul(mag, gf256.Exp(c.n-1-pos))
		codeword[pos] ^= mag
	}
	return nil
}
