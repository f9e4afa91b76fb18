package rs

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"colorbars/internal/gf256"
)

// bruteLocatorRoots returns, ascending, every nonzero X with
// σ(X⁻¹) = 0, by Horner evaluation of σ at all 255 nonzero field
// elements.
func bruteLocatorRoots(sigma []byte) []byte {
	high := slices.Clone(sigma)
	slices.Reverse(high) // PolyEval takes the highest coefficient first
	var roots []byte
	for x := 1; x < 256; x++ {
		if gf256.PolyEval(high, gf256.Inv(byte(x))) == 0 {
			roots = append(roots, byte(x))
		}
	}
	return roots
}

// checkLocatorRoots fails the test unless locatorRoots says σ has
// deg(σ) distinct roots exactly when the brute-force search finds
// that many, and then returns the same ones. It reports whether they
// split.
func checkLocatorRoots(t testing.TB, sigma []byte) bool {
	t.Helper()
	want := bruteLocatorRoots(sigma)
	deg := len(sigma) - 1
	var x [3]byte
	ok := locatorRoots(sigma, &x)
	if ok != (len(want) == deg) {
		t.Fatalf("σ %x: locatorRoots %v, brute force finds roots %x", sigma, ok, want)
	}
	if ok {
		got := slices.Clone(x[:deg])
		slices.Sort(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("σ %x: locatorRoots %x, brute force %x", sigma, got, want)
		}
	}
	return ok
}

// fromRoots returns σ(y) = Π (1 + r·y), lowest coefficient first.
// PolyMul's convolution is the same in either coefficient order.
func fromRoots(roots ...byte) []byte {
	sigma := []byte{1}
	for _, r := range roots {
		sigma = gf256.PolyMul(sigma, []byte{1, r})
	}
	return sigma
}

// TestLocatorRootsMatchBruteForce compares the table-driven root
// finder with brute-force evaluation over every nonzero field element:
// every locator of degree 1 and 2 (σ_0 = 1, σ_d ≠ 0), and for degree 3
// a seeded sample of split cubics with distinct roots, of arbitrary
// cubics, and of the shapes the substitution treats apart: p = 0
// (σ_2 = σ_1²), q = 0 (σ_3 = σ_1·σ_2) and repeated roots.
func TestLocatorRootsMatchBruteForce(t *testing.T) {
	for a := 1; a < 256; a++ {
		checkLocatorRoots(t, []byte{1, byte(a)})
	}
	split := 0
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			if checkLocatorRoots(t, []byte{1, byte(a), byte(b)}) {
				split++
			}
		}
	}
	// y² + y = t has roots for half of all t.
	if split != 255*127 {
		t.Errorf("%d of the degree-2 locators split, want %d", split, 255*127)
	}

	rng := rand.New(rand.NewSource(48))
	nonzero := func() byte { return byte(1 + rng.Intn(255)) }
	for i := 0; i < 3000; i++ {
		r := rng.Perm(255)[:3]
		if !checkLocatorRoots(t, fromRoots(byte(r[0]+1), byte(r[1]+1), byte(r[2]+1))) {
			t.Fatalf("a cubic with three distinct roots %v did not split", r)
		}
	}
	cases := map[string]int{}
	for i := 0; i < 3000; i++ {
		a, b, r := byte(rng.Intn(256)), byte(rng.Intn(256)), nonzero()
		for name, sigma := range map[string][]byte{
			"any":         {1, a, b, nonzero()},
			"p=0":         {1, a, gf256.Mul(a, a), nonzero()},
			"q=0":         {1, a, b, gf256.Mul(a, b)},
			"double root": fromRoots(r, r, nonzero()),
			"triple root": fromRoots(r, r, r),
		} {
			if sigma[3] != 0 && checkLocatorRoots(t, sigma) {
				cases[name]++
			}
		}
	}
	// Every p = 0 cubic, z³ + a·z² + a²·z + c: its depressed form
	// w³ = q splits when q is a nonzero cube.
	for a := 0; a < 256; a++ {
		for c := 1; c < 256; c++ {
			if checkLocatorRoots(t, []byte{1, byte(a), gf256.Mul(byte(a), byte(a)), byte(c)}) {
				cases["p=0, all"]++
			}
		}
	}
	t.Logf("degree-3 locators that split, by shape: %v", cases)
	for _, name := range []string{"double root", "triple root", "q=0"} {
		if cases[name] != 0 {
			t.Errorf("%d %s locators split into three distinct roots", cases[name], name)
		}
	}
	if cases["any"] == 0 || cases["p=0, all"] == 0 {
		t.Errorf("the sample holds no split cubic of some shape: %v", cases)
	}
}

// FuzzLocatorRoots checks the root finder against brute force on
// fuzz-chosen locators of degree 1 to 3.
func FuzzLocatorRoots(f *testing.F) {
	f.Add([]byte{0, 7})
	f.Add([]byte{1, 3, 9})
	f.Add([]byte{2, 5, 17, 86}) // p = 5² ⊕ 17 = 0
	f.Add([]byte{2, 3, 7, 9})   // q = 3·7 ⊕ 9 = 0
	f.Add([]byte{2, 7, 14, 8})  // (1 + y)(1 + 2y)(1 + 4y): roots 1, 2 and 4
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		deg := 1 + int(data[0])%3
		sigma := make([]byte, deg+1)
		sigma[0] = 1
		copy(sigma[1:], data[1:])
		if sigma[deg] == 0 {
			sigma[deg] = 1 // trimmed: the top coefficient is nonzero
		}
		checkLocatorRoots(t, sigma)
	})
}
