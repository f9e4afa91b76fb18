package rs

import (
	"fmt"
	"math/bits"

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
// Every polynomial evaluation — the syndromes, the Chien search,
// Forney's numerator and denominator and the syndrome-domain check —
// is a sum of products, each one load from the code's power tables
// and one from gf256's product table. The products are independent
// of each other, unlike a Horner chain, where each step waits on the
// previous multiply. The sums are the same field elements Horner
// computes, so the result is bit-identical (DESIGN.md §17).
type Decoder struct {
	c *Code

	synd, verify     []byte
	gamma            []byte
	fsynd            []byte
	sigma, prev, tmp []byte
	loc              []byte
	omega, deriv     []byte
	positions        []int

	// gSet holds the positions whose erasure locator gamma holds, kept
	// across calls so that the next call's Γ can be updated instead of
	// rebuilt (erasureLocator).
	gSet posSet
}

// posSet is a set of codeword positions (n ≤ 255), one bit each.
type posSet [4]uint64

func (s *posSet) add(p int)      { s[p>>6] |= 1 << (p & 63) }
func (s *posSet) has(p int) bool { return s[p>>6]>>(p&63)&1 != 0 }
func (s *posSet) len() (n int) {
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// appendTo appends the set's positions to dst, ascending.
func (s *posSet) appendTo(dst []int) []int {
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, i<<6|bits.TrailingZeros64(w))
		}
	}
	return dst
}

// NewDecoder returns a decoder with scratch sized for the code.
func (c *Code) NewDecoder() *Decoder {
	twoT := c.n - c.k
	return &Decoder{
		c:         c,
		synd:      make([]byte, twoT),
		verify:    make([]byte, twoT),
		gamma:     append(make([]byte, 0, twoT+1), 1),
		fsynd:     make([]byte, twoT),
		sigma:     make([]byte, 0, twoT+2),
		prev:      make([]byte, 0, twoT+2),
		tmp:       make([]byte, 0, twoT+2),
		loc:       make([]byte, 0, 2*twoT+2),
		omega:     make([]byte, twoT),
		deriv:     make([]byte, 0, twoT+1),
		positions: make([]int, 0, twoT),
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
	clear(d.synd)
	c.AddSyndromes(d.synd, codeword, 0)
	if err := d.correct(codeword, erasures); err != nil {
		return nil, err
	}
	return codeword[:c.k], nil
}

// CheckSyndromes reports whether Decode would succeed on a codeword
// whose syndromes are synd (n−k of them, S_0 first) with the given
// erasures, without the codeword: both run correct, which decides
// from the syndromes alone. A receiver that scores many erasure
// hypotheses against one received word (the loss-split search) builds
// each one's syndromes from cached parts (AddSyndromes) and decodes
// only the hypothesis that passes.
func (d *Decoder) CheckSyndromes(synd []byte, erasures []int) bool {
	c := d.c
	if len(synd) != c.n-c.k || len(erasures) > c.n-c.k {
		return false
	}
	for _, e := range erasures {
		if e < 0 || e >= c.n {
			return false
		}
	}
	copy(d.synd, synd)
	return d.correct(nil, erasures) == nil
}

// correct is the correction body Decode and CheckSyndromes share. From
// the syndromes in d.synd it locates the positions to correct
// (locate), computes each one's Forney magnitude e_p and checks the
// corrected word in the syndrome domain: its syndromes are
// S_j ⊕ Σ_p e_p·X_p^j, since syndromes are linear over XOR, and they
// must all vanish, or the correction was a miscorrection. GF(2^8)
// arithmetic is exact, so this is the verdict of recomputing the
// syndromes from the corrected bytes. A non-nil codeword receives each
// magnitude in place as it is found, so on failure it is left partly
// corrected (a magnitude failed) or fully corrected (only the check
// failed).
func (d *Decoder) correct(codeword []byte, erasures []int) error {
	c := d.c
	if allZero(d.synd) {
		return nil
	}
	loc, positions, err := d.locate(erasures)
	if err != nil {
		return err
	}
	d.forneyPrepare(loc)
	v := append(d.verify[:0], d.synd...)
	for _, pos := range positions {
		mag, ok := d.forneyMagnitude(pos)
		if !ok {
			return ErrTooManyErrors
		}
		if codeword != nil {
			codeword[pos] ^= mag
		}
		row := gf256.MulRow(mag)
		for j := range v {
			v[j] ^= row[c.synPow[j*c.n+pos]]
		}
	}
	if !allZero(v) {
		return ErrTooManyErrors
	}
	return nil
}

// locate runs the decode pipeline between the syndromes (d.synd, not
// all zero) and Forney's algorithm: the erasure locator Γ, the Forney
// syndromes, Berlekamp–Massey and the locator's roots. It returns the
// combined locator loc = Γ·σ and the positions to correct, ascending,
// both in scratch.
func (d *Decoder) locate(erasures []int) (loc []byte, positions []int, err error) {
	c := d.c
	// The first word is built in a register: a code of up to 64
	// bytes, as the receiver's are, keeps every position there.
	var eras posSet
	var w0 uint64
	for _, p := range erasures {
		if p < 64 {
			w0 |= 1 << p
		} else {
			eras.add(p)
		}
	}
	eras[0] |= w0
	if eras.len() != len(erasures) {
		// A repeated erasure is one position but two degrees of Γ, so
		// loc cannot have deg(loc) distinct roots (see chienSearch).
		return nil, nil, ErrTooManyErrors
	}
	g := d.erasureLocator(&eras, len(erasures))

	// Modified (Forney) syndromes: Ξ(x) = Γ(x)·S(x) mod x^(n−k).
	// Berlekamp–Massey reads only Ξ_j for j ≥ the erasure count e, and
	// each of those is Σ_i Γ_i·S_(j−i) over all of Γ: two are summed
	// per pass over Γ, so each row serves two lookups.
	e := len(erasures)
	j := e
	for ; j+1 < len(d.fsynd); j += 2 {
		w := d.synd[j-e : j+2]
		var s0, s1 byte
		for i, gi := range g {
			row := gf256.MulRow(gi)
			s0 ^= row[w[e-i]]
			s1 ^= row[w[e+1-i]]
		}
		d.fsynd[j], d.fsynd[j+1] = s0, s1
	}
	if j < len(d.fsynd) {
		var s byte
		for i, gi := range g {
			s ^= gf256.MulRow(gi)[d.synd[j-i]]
		}
		d.fsynd[j] = s
	}

	errLoc, err := d.berlekampMassey(d.fsynd, len(erasures), c.n-c.k)
	if err != nil {
		return nil, nil, err
	}
	if len(errLoc) <= 4 {
		positions, err = d.smallLocatorPositions(errLoc, &eras)
	} else {
		positions, err = d.chienSearch(errLoc, &eras)
	}
	if err != nil {
		return nil, nil, err
	}

	// Combined locator loc = Γ·σ (plain convolution into scratch).
	loc = d.loc[:0]
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
	return loc, positions, nil
}

// erasureLocator returns the erasure locator Γ(x) = Π (1 + X_i·x) over
// the count positions in eras, in scratch. Γ depends only on the set
// of positions, so it is built from the previous call's Γ when the two
// sets differ in at most half as many positions as eras holds: the
// binomials of positions that left are divided out, and those of
// positions that entered multiplied in. GF(2^8) arithmetic is exact,
// so every coefficient equals a rebuild's.
func (d *Decoder) erasureLocator(eras *posSet, count int) []byte {
	xRow := d.c.xRow
	var left, entered posSet
	changes := 0
	for i := range eras {
		diff := eras[i] ^ d.gSet[i]
		left[i], entered[i] = diff&d.gSet[i], diff&eras[i]
		changes += bits.OnesCount64(diff)
	}
	g := d.gamma
	if 2*changes > count {
		g, entered = append(g[:0], 1), *eras
	} else {
		for i, w := range left {
			for ; w != 0; w &= w - 1 {
				g = divBinomial(g, xRow[i<<6|bits.TrailingZeros64(w)])
			}
		}
	}
	for i, w := range entered {
		for ; w != 0; w &= w - 1 {
			g = mulBinomial(g, xRow[i<<6|bits.TrailingZeros64(w)])
		}
	}
	d.gamma, d.gSet = g, *eras
	return g
}

// mulBinomial multiplies g (lowest coefficient first) by (1 + X·x) in
// place, given X's product-table row: coefficient i becomes
// g_i ⊕ X·g_(i−1), the convolution PolyMul computes, with carry
// holding each pre-update g_(i−1).
func mulBinomial(g []byte, x *[256]byte) []byte {
	carry := g[0]
	h := g[1:]
	for i, v := range h {
		h[i] = v ^ x[carry]
		carry = v
	}
	return append(g, x[carry])
}

// divBinomial divides g (lowest coefficient first) by a factor
// (1 + X·x) in place, given X's product-table row: g = (1 + X·x)·q
// gives q_0 = g_0 and q_i = g_i ⊕ X·q_(i−1), so ascending index
// carries each q_(i−1) to the next step. The division is exact, so
// the dropped top coefficient is X·q_(m−1) with no remainder.
func divBinomial(g []byte, x *[256]byte) []byte {
	q := g[0]
	for i := 1; i < len(g)-1; i++ {
		q = g[i] ^ x[q]
		g[i] = q
	}
	return g[:len(g)-1]
}

// AddSyndromes XORs into synd (n−k syndromes, S_0 first) the
// syndromes of the n-byte word that holds part at [off, off+len(part))
// and zeros elsewhere. Syndromes are linear over XOR, so a word's
// syndromes are the XOR of its pieces' syndromes at their offsets.
// Two syndromes are summed per pass over part, so each MulRow row
// serves two lookups.
func (c *Code) AddSyndromes(synd, part []byte, off int) {
	n := c.n
	if len(synd) != n-c.k || off < 0 || off+len(part) > n {
		panic(fmt.Sprintf("rs: AddSyndromes of %d bytes at %d into %d syndromes of RS(%d,%d)",
			len(part), off, len(synd), n, c.k))
	}
	end := off + len(part)
	j := 0
	for ; j+1 < len(synd); j += 2 {
		pw0 := c.synPow[j*n+off : j*n+end]
		pw1 := c.synPow[(j+1)*n+off : (j+1)*n+end]
		var s0, s1 byte
		for i, r := range part {
			row := gf256.MulRow(r)
			s0 ^= row[pw0[i]]
			s1 ^= row[pw1[i]]
		}
		synd[j] ^= s0
		synd[j+1] ^= s1
	}
	if j < len(synd) {
		pw := c.synPow[j*n+off : j*n+end]
		var s byte
		for i, r := range part {
			s ^= gf256.MulRow(r)[pw[i]]
		}
		synd[j] ^= s
	}
}

// berlekampMassey is the textbook Berlekamp–Massey on the decoder's
// scratch buffers: polynomial updates write in place (with a swap for
// the length-change case) instead of allocating. prev is kept divided
// by its discrepancy b, so each correction δ/b·x^m·prev is one lookup
// per coefficient in δ's row: the same products, since GF(2^8)
// multiplication is associative and exact.
func (d *Decoder) berlekampMassey(synd []byte, numEras, twoT int) ([]byte, error) {
	sigma := append(d.sigma[:0], 1)
	prev := append(d.prev[:0], 1) // divided by b = 1
	tmp := d.tmp[:0]
	var l int
	var m = 1
	for i := 0; i < twoT-numEras; i++ {
		n := i + numEras
		delta := synd[n]
		for j := 1; j < min(l+1, len(sigma)); j++ {
			delta ^= gf256.MulRow(sigma[j])[synd[n-j]]
		}
		if delta == 0 {
			m++
			continue
		}
		row := gf256.MulRow(delta)
		if 2*l <= i {
			inv := gf256.MulRow(gf256.Inv(delta))
			tmp = tmp[:0]
			for _, c := range sigma {
				tmp = append(tmp, inv[c])
			}
			sigma = subShiftedInPlace(sigma, prev, row, m)
			prev, tmp = tmp, prev
			l = i + 1 - l
			m = 1
		} else {
			sigma = subShiftedInPlace(sigma, prev, row, m)
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

// subShiftedInPlace computes sigma ^= coef·x^shift·prev, given coef's
// product-table row, extending sigma with zeros as needed. sigma and
// prev must not alias.
func subShiftedInPlace(sigma, prev []byte, coef *[256]byte, shift int) []byte {
	for len(sigma) < len(prev)+shift {
		sigma = append(sigma, 0)
	}
	for i, c := range prev {
		sigma[i+shift] ^= coef[c]
	}
	return sigma
}

// chienSearch finds the codeword positions whose inverse locator is a
// root of the combined locator loc = Γ·σ, ascending, into scratch, and
// fails unless their count equals deg(loc) = len(erasures) + deg(σ)
// (Γ's leading coefficient is the product of the erasure locators and
// σ comes back trimmed, so neither product term vanishes). locate
// runs it only for deg(σ) ≥ 4; smallLocatorPositions reaches the same
// verdict and positions below that.
//
// Γ's roots are exactly the erased positions, and a field has no zero
// divisors, so position i is a root of loc iff it is erased or a root
// of σ. Only σ is evaluated, and its degree is at most half the parity
// the erasures leave, so invPow's rows cover it. A repeated erasure
// would be one position but two degrees of Γ and fail the count, as a
// double root does in the search over loc; locate rejects it first,
// so erasures holds len(erasures) distinct positions.
func (d *Decoder) chienSearch(sigma []byte, erasures *posSet) ([]int, error) {
	c := d.c
	w := c.n - c.k
	positions := d.positions[:0]
	for i := 0; i < c.n; i++ {
		if erasures.has(i) {
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
	d.positions = positions
	if len(positions) != erasures.len()+len(sigma)-1 {
		return nil, ErrTooManyErrors
	}
	return positions, nil
}

// smallLocatorPositions is the Chien search for σ of degree at most 3:
// the same verdict and positions, from σ's roots (locatorRoots)
// instead of an evaluation at every position. The search succeeds iff
// σ has deg(σ) distinct roots, each the inverse locator of a position
// inside the code that is not erased, and it returns those positions
// and the erasures, ascending. For deg(σ) = 0 that is the erasures.
func (d *Decoder) smallLocatorPositions(sigma []byte, erasures *posSet) ([]int, error) {
	all := *erasures
	if len(sigma) > 1 {
		var x [3]byte
		if !locatorRoots(sigma, &x) {
			return nil, ErrTooManyErrors
		}
		for _, xi := range x[:len(sigma)-1] {
			p := int(d.c.locPos[xi])
			if p < 0 || all.has(p) {
				return nil, ErrTooManyErrors // outside the code, or erased
			}
			all.add(p)
		}
	}
	d.positions = all.appendTo(d.positions[:0])
	return d.positions, nil
}

// forneyPrepare forms, from d.synd and the combined locator, the error
// evaluator Ω and the formal derivative σ' that forneyMagnitude reads.
func (d *Decoder) forneyPrepare(loc []byte) {
	twoT := d.c.n - d.c.k
	// Error evaluator Ω(x) = S(x)·σ(x) mod x^(2t), lowest-first.
	omega := d.omega[:twoT]
	for i := 0; i < twoT; i++ {
		var s byte
		for j := 0; j < len(loc) && j <= i; j++ {
			s ^= gf256.MulRow(loc[j])[d.synd[i-j]]
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
}

// forneyMagnitude returns the error magnitude at position pos, or
// false when σ' vanishes there.
func (d *Decoder) forneyMagnitude(pos int) (byte, bool) {
	c := d.c
	twoT := c.n - c.k
	// pw[j] = X^(−j) for j < n−k: Ω has n−k coefficients, and σ'
	// reaches X^(−2i) with 2i ≤ deg(loc)−1 < n−k.
	pw := c.invPow[pos*twoT : pos*twoT+twoT]
	var num byte // Ω(X^(−1))
	for i, o := range d.omega {
		num ^= gf256.MulRow(o)[pw[i]]
	}
	var den byte // σ'(X^(−1))
	for i, dv := range d.deriv {
		den ^= gf256.MulRow(dv)[pw[2*i]]
	}
	if den == 0 {
		return 0, false
	}
	// Forney: e = X·Ω(X^{-1})/σ'(X^{-1}) for the b=0 syndrome
	// convention (first consecutive root α^0).
	mag := gf256.Mul(num, gf256.Inv(den))
	return gf256.Mul(mag, gf256.Exp(c.n-1-pos)), true
}
