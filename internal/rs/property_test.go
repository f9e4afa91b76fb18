package rs

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestPropertyErrorsPlusErasuresRoundTrip is the full decoding-radius
// property: for random (n, k), corrupt a codeword with e unknown
// errors and r known erasures such that 2e + r ≤ n−k, and the decoder
// must recover the original data exactly. This is the bound ColorBars
// leans on — inter-frame gaps become erasures, so each one costs one
// parity byte instead of two.
func TestPropertyErrorsPlusErasuresRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		parity := 2 + rng.Intn(30) // n−k in [2, 31]
		k := 1 + rng.Intn(255-parity)
		n := k + parity
		c := MustNew(n, k)

		data := make([]byte, k)
		rng.Read(data)
		cw, err := c.Encode(data)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}

		// Pick e and r on or under the budget, occasionally exactly on
		// it — the boundary is where locator-degree bookkeeping breaks.
		e := rng.Intn(parity/2 + 1)
		r := rng.Intn(parity - 2*e + 1)
		if trial%4 == 0 {
			r = parity - 2*e
		}

		perm := rng.Perm(n)
		corrupted := append([]byte(nil), cw...)
		for _, p := range perm[:e+r] {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		erasures := append([]int(nil), perm[e:e+r]...)

		got, err := c.Decode(corrupted, erasures)
		if err != nil {
			t.Fatalf("n=%d k=%d e=%d r=%d: Decode failed: %v", n, k, e, r, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("n=%d k=%d e=%d r=%d: decoded data differs", n, k, e, r)
		}
		if !bytes.Equal(corrupted, cw) {
			t.Fatalf("n=%d k=%d e=%d r=%d: corrected codeword differs from original", n, k, e, r)
		}
	}
}

// TestPropertyErasedCleanPositions checks that erasures pointing at
// positions that were never corrupted are harmless: the decoder may
// "correct" them with a zero magnitude but must still return the
// original data, up to r = n−k clean erasures.
func TestPropertyErasedCleanPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		parity := 2 + rng.Intn(20)
		k := 1 + rng.Intn(255-parity)
		n := k + parity
		c := MustNew(n, k)

		data := make([]byte, k)
		rng.Read(data)
		cw, err := c.Encode(data)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		r := rng.Intn(parity + 1)
		erasures := rng.Perm(n)[:r]

		got, err := c.Decode(append([]byte(nil), cw...), erasures)
		if err != nil {
			t.Fatalf("n=%d k=%d r=%d clean erasures: %v", n, k, r, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("n=%d k=%d r=%d clean erasures: data differs", n, k, r)
		}
	}
}

// TestPropertyOverBudgetNeverMiscorrectsSilently checks the decoder's
// failure mode just past the radius: with 2e + r = n−k + 1 the
// decoder may either report an error or happen to decode — but when
// it claims success the result must be a consistent codeword
// (re-encoding the returned data reproduces the corrected codeword),
// never a half-corrected buffer.
func TestPropertyOverBudgetNeverMiscorrectsSilently(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 300; trial++ {
		parity := 3 + rng.Intn(20)
		k := 1 + rng.Intn(255-parity)
		n := k + parity
		c := MustNew(n, k)

		data := make([]byte, k)
		rng.Read(data)
		cw, err := c.Encode(data)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}

		// 2e + r = parity + 1: one past the guarantee.
		e := rng.Intn(parity/2 + 1)
		r := parity + 1 - 2*e
		if e+r > n {
			continue
		}
		perm := rng.Perm(n)
		corrupted := append([]byte(nil), cw...)
		for _, p := range perm[:e+r] {
			corrupted[p] ^= byte(1 + rng.Intn(255))
		}
		erasures := append([]int(nil), perm[e:e+r]...)

		got, err := c.Decode(corrupted, erasures)
		if err != nil {
			continue // detection is the expected outcome
		}
		recoded, err := c.Encode(append([]byte(nil), got...))
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(recoded, corrupted) {
			t.Fatalf("n=%d k=%d e=%d r=%d: claimed success but corrected buffer is not a codeword", n, k, e, r)
		}
	}
}

// TestPropertyMatchesReference drives one reused Decoder and the
// reference pipeline with the same seeded inputs and requires the
// same returned bytes, the same corrected codeword and the same
// success or failure on each. The geometries are the two the default
// links use, RS(35,17) and RS(33,11), a single-parity code, RS(12,11),
// and random (n, k). Inputs mix
// errors and erasures up to and past the budget, erasure sets that
// point at the wrong positions (a wrong loss-split guess), duplicate
// erasure positions and out-of-range ones.
func TestPropertyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	geoms := [][2]int{{35, 17}, {33, 11}, {12, 11}} // and a single parity byte
	for len(geoms) < 27 {
		n := 2 + rng.Intn(254)
		geoms = append(geoms, [2]int{n, 1 + rng.Intn(n-1)})
	}
	var ok, failed int
	for _, g := range geoms {
		c := MustNew(g[0], g[1])
		dec := c.NewDecoder() // scratch reused across trials, as the receiver does
		for trial := 0; trial < 300; trial++ {
			cw, erasures := randomDamage(rng, c)
			if _, err := checkAgainstReference(t, c, dec, cw, erasures); err != nil {
				failed++
			} else {
				ok++
			}
		}
	}
	// Both outcomes must be well represented, or the comparison says
	// little about one of the two paths.
	if ok < 1000 || failed < 1000 {
		t.Errorf("%d decodes succeeded and %d failed; want at least 1000 of each", ok, failed)
	}
}

// TestAddSyndromesPartition cuts random words of random codes into
// random runs of adjacent ranges and requires the XOR of AddSyndromes
// over the ranges to equal the whole word's syndromes from the
// reference pipeline, whatever the cut: the linearity the receiver's
// loss-split search scores its hypotheses by.
func TestAddSyndromesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(254)
		c := MustNew(n, 1+rng.Intn(n-1))
		word := make([]byte, n)
		rng.Read(word)
		want := c.syndromes(word)
		got := make([]byte, n-c.k)
		for off := 0; off < n; {
			end := off + 1 + rng.Intn(n-off)
			if rng.Intn(4) == 0 {
				end = off // empty ranges add nothing
			}
			c.AddSyndromes(got, word[off:end], off)
			if end == off {
				end++
				c.AddSyndromes(got, word[off:end], off)
			}
			off = end
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("RS(%d,%d): partitioned syndromes %x, whole word %x", n, c.k, got, want)
		}
	}
}

// randomDamage returns a random codeword of c damaged with e unknown
// errors and r erased bytes, with 2e + r drawn up to three past the
// parity budget, and the erasure list the decoder is told about: most
// often the true erased positions, sometimes a shifted set, and
// sometimes with a repeated or out-of-range position appended.
func randomDamage(rng *rand.Rand, c *Code) ([]byte, []int) {
	n, parity := c.n, c.n-c.k
	data := make([]byte, c.k)
	rng.Read(data)
	cw, err := c.Encode(data)
	if err != nil {
		panic(err)
	}
	budget := rng.Intn(parity + 4)
	e := rng.Intn(budget/2 + 1)
	r := min(budget-2*e, n-e)
	if rng.Intn(3) == 0 {
		// Erasure-heavy, as a gap loss is: the whole budget erased.
		e, r = 0, min(budget, n)
	}
	perm := rng.Perm(n)
	for _, p := range perm[:e] {
		cw[p] ^= byte(1 + rng.Intn(255))
	}
	erasures := append([]int(nil), perm[e:e+r]...)
	for _, p := range erasures {
		if rng.Intn(2) == 0 {
			cw[p] = 0 // a lost symbol is filled with zero
		} else {
			cw[p] = byte(rng.Intn(256))
		}
	}
	switch rng.Intn(10) {
	case 0: // wrong loss split: every declared position shifted
		shift := 1 + rng.Intn(3)
		for i := range erasures {
			erasures[i] = (erasures[i] + shift) % n
		}
	case 1: // duplicate position
		if len(erasures) > 0 {
			erasures = append(erasures, erasures[rng.Intn(len(erasures))])
		}
	case 2: // out of range
		erasures = append(erasures, []int{-1, n, n + rng.Intn(10)}[rng.Intn(3)])
	}
	return cw, erasures
}
