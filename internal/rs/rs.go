// Package rs implements Reed-Solomon error-correction codes over
// GF(2^8), the coding scheme ColorBars uses to recover symbols lost in
// the camera's inter-frame gap (paper §5).
//
// An RS(n, k) code protects k data bytes with n−k parity bytes and can
// correct up to t = (n−k)/2 byte errors at unknown positions, or up to
// n−k erasures at known positions, or any mix with
// 2·errors + erasures ≤ n−k. ColorBars exploits the erasure case: the
// packet header carries the packet size, so the receiver knows exactly
// how many symbols the inter-frame gap swallowed and where, and can
// declare those positions erased — doubling the recoverable loss
// compared to blind error correction.
//
// The decoder implements the textbook pipeline: syndrome computation,
// Berlekamp–Massey (with erasure initialization via the Forney
// variant), Chien search, and Forney's algorithm for error magnitudes.
// Its polynomial evaluations read per-code power tables and the gf256
// product table instead of running Horner chains (DESIGN.md §17); the
// allocating textbook form lives in the tests as the reference oracle.
package rs

import (
	"errors"
	"fmt"

	"colorbars/internal/gf256"
)

// ErrTooManyErrors is returned when the corruption exceeds the code's
// correction capability or decoding is otherwise inconsistent.
var ErrTooManyErrors = errors.New("rs: too many errors to correct")

// Code is an RS(n, k) code. The zero value is not usable; use New.
type Code struct {
	n, k int
	gen  []byte // generator polynomial, degree n-k

	// Power tables for the decoder, built once per code and read-only
	// after New (DESIGN.md §17). Codeword position i has locator
	// X_i = α^(n−1−i); j runs over [0, n−k).
	//   synPow[j·n + i]     = X_i^j: position i's factor in S_j;
	//   invPow[i·(n−k) + j] = X_i^(−j): the powers of the point the
	//                         Chien search and Forney evaluate at i.
	synPow, invPow []byte
}

// New returns an RS(n, k) code over GF(2^8). n must be in (k, 255]
// and k must be positive.
func New(n, k int) (*Code, error) {
	if k <= 0 || n <= k || n > 255 {
		return nil, fmt.Errorf("rs: invalid parameters n=%d k=%d (need 0 < k < n <= 255)", n, k)
	}
	twoT := n - k
	gen := []byte{1}
	for i := 0; i < twoT; i++ {
		gen = gf256.PolyMul(gen, []byte{1, gf256.Exp(i)})
	}
	synPow := make([]byte, twoT*n)
	for j := 0; j < twoT; j++ {
		for i := 0; i < n; i++ {
			synPow[j*n+i] = gf256.Exp(j * (n - 1 - i))
		}
	}
	invPow := make([]byte, n*twoT)
	for i := 0; i < n; i++ {
		for j := 0; j < twoT; j++ {
			invPow[i*twoT+j] = gf256.Exp(-j * (n - 1 - i))
		}
	}
	return &Code{n: n, k: k, gen: gen, synPow: synPow, invPow: invPow}, nil
}

// MustNew is New, panicking on invalid parameters. For package-level
// variables and tests.
func MustNew(n, k int) *Code {
	c, err := New(n, k)
	if err != nil {
		panic(err)
	}
	return c
}

// N returns the codeword length in bytes.
func (c *Code) N() int { return c.n }

// K returns the number of data bytes per codeword.
func (c *Code) K() int { return c.k }

// ParityBytes returns n − k.
func (c *Code) ParityBytes() int { return c.n - c.k }

// CorrectableErrors returns t = (n−k)/2, the number of byte errors at
// unknown positions the code can fix.
func (c *Code) CorrectableErrors() int { return (c.n - c.k) / 2 }

// Encode appends n−k parity bytes to the k data bytes and returns the
// n-byte systematic codeword. len(data) must equal K().
func (c *Code) Encode(data []byte) ([]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("rs: data length %d, want %d", len(data), c.k)
	}
	// Systematic encoding: codeword = data·x^(n−k) + remainder.
	padded := make([]byte, c.n)
	copy(padded, data)
	_, rem := gf256.PolyDivMod(padded, c.gen)
	out := make([]byte, c.n)
	copy(out, data)
	copy(out[c.n-len(rem):], rem)
	return out, nil
}

// Decode corrects a received codeword in place and returns the k data
// bytes. erasures lists known-bad positions (0-based indexes into the
// codeword); pass nil when none are known. The codeword slice is
// modified to hold the corrected codeword.
//
// Decode runs the pipeline through a throwaway Decoder; callers on a
// hot path should hold their own Decoder (NewDecoder) to reuse its
// scratch across calls. The erasure-position order does not affect
// the result: the erasure locator is a product over positions, and
// GF(2^8) multiplication is commutative and exact.
func (c *Code) Decode(codeword []byte, erasures []int) ([]byte, error) {
	return c.NewDecoder().Decode(codeword, erasures)
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
