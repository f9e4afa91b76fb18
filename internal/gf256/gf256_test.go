package gf256

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestFieldAxioms(t *testing.T) {
	// Exhaustively verify the core field axioms on a sampled grid and
	// with property tests over the full byte range.
	assoc := func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("associativity: %v", err)
	}
	comm := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	dist := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(dist, nil); err != nil {
		t.Errorf("distributivity: %v", err)
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	for i := 0; i < 256; i++ {
		a := byte(i)
		if Mul(a, 1) != a {
			t.Fatalf("%d * 1 != %d", a, a)
		}
		if Mul(a, 0) != 0 {
			t.Fatalf("%d * 0 != 0", a)
		}
	}
}

// TestMulRowExhaustive checks every entry of the product table
// against shift-and-add multiplication modulo Poly, which shares no
// table with Mul.
func TestMulRowExhaustive(t *testing.T) {
	for a := 0; a < 256; a++ {
		row := MulRow(byte(a))
		for b := 0; b < 256; b++ {
			var p int
			for x, y := a, b; y != 0; y >>= 1 {
				if y&1 != 0 {
					p ^= x
				}
				x <<= 1
				if x&0x100 != 0 {
					x ^= Poly
				}
			}
			if row[b] != byte(p) || Mul(byte(a), byte(b)) != byte(p) {
				t.Fatalf("%d·%d: MulRow %d, Mul %d, want %d", a, b, row[b], Mul(byte(a), byte(b)), p)
			}
		}
	}
}

func TestInverseExhaustive(t *testing.T) {
	for i := 1; i < 256; i++ {
		a := byte(i)
		inv := Inv(a)
		if Mul(a, inv) != 1 {
			t.Fatalf("a=%d: a * a^-1 = %d, want 1", a, Mul(a, inv))
		}
		if Div(1, a) != inv {
			t.Fatalf("Div(1, %d) != Inv(%d)", a, a)
		}
	}
}

func TestDivMulRoundTrip(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Mul(Div(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Div(1, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Inv(0)
}

func TestLogZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Log(0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for i := 1; i < 256; i++ {
		if Exp(Log(byte(i))) != byte(i) {
			t.Fatalf("Exp(Log(%d)) != %d", i, i)
		}
	}
	// Exp period is 255.
	for n := -300; n < 300; n++ {
		if Exp(n) != Exp(n+255) {
			t.Fatalf("Exp not periodic at %d", n)
		}
	}
}

func TestPow(t *testing.T) {
	for a := 1; a < 256; a++ {
		got := Pow(byte(a), 3)
		want := Mul(Mul(byte(a), byte(a)), byte(a))
		if got != want {
			t.Fatalf("Pow(%d,3) = %d, want %d", a, got, want)
		}
	}
	if Pow(0, 0) != 1 {
		t.Error("Pow(0,0) should be 1")
	}
	if Pow(0, 5) != 0 {
		t.Error("Pow(0,5) should be 0")
	}
	if Pow(5, 0) != 1 {
		t.Error("Pow(5,0) should be 1")
	}
}

func TestGeneratorOrder(t *testing.T) {
	// α must generate all 255 nonzero elements.
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		seen[Exp(i)] = true
	}
	if len(seen) != 255 {
		t.Errorf("generator produced %d distinct elements, want 255", len(seen))
	}
}

func TestPolyEval(t *testing.T) {
	// p(x) = x^2 + 3x + 2 evaluated at x=1 is 1^2 ^ 3 ^ 2 = 0 (GF add
	// is XOR: 1 ^ 3 ^ 2 == 0).
	p := []byte{1, 3, 2}
	if got := PolyEval(p, 1); got != 0 {
		t.Errorf("PolyEval = %d, want 0", got)
	}
	if got := PolyEval(p, 0); got != 2 {
		t.Errorf("PolyEval at 0 = %d, want constant term 2", got)
	}
}

func TestPolyMulDegree(t *testing.T) {
	p := []byte{1, 2}    // x + 2
	q := []byte{1, 0, 1} // x^2 + 1
	r := PolyMul(p, q)
	if len(r) != 4 {
		t.Fatalf("degree wrong: len=%d", len(r))
	}
	// Check by evaluation at several points.
	for x := 0; x < 20; x++ {
		want := Mul(PolyEval(p, byte(x)), PolyEval(q, byte(x)))
		if got := PolyEval(r, byte(x)); got != want {
			t.Errorf("eval mismatch at %d: %d != %d", x, got, want)
		}
	}
}

func TestPolyAdd(t *testing.T) {
	p := []byte{1, 2, 3}
	q := []byte{5, 6}
	r := PolyAdd(p, q)
	want := []byte{1, 2 ^ 5, 3 ^ 6}
	if !bytes.Equal(r, want) {
		t.Errorf("PolyAdd = %v, want %v", r, want)
	}
	// Addition is evaluation-compatible.
	for x := 0; x < 10; x++ {
		if PolyEval(r, byte(x)) != PolyEval(p, byte(x))^PolyEval(q, byte(x)) {
			t.Errorf("eval mismatch at %d", x)
		}
	}
}

func TestPolyScale(t *testing.T) {
	p := []byte{1, 2, 3}
	s := PolyScale(p, 2)
	for x := 0; x < 10; x++ {
		if PolyEval(s, byte(x)) != Mul(2, PolyEval(p, byte(x))) {
			t.Errorf("scale eval mismatch at %d", x)
		}
	}
}

func TestPolyDivMod(t *testing.T) {
	f := func(pRaw, qRaw []byte) bool {
		if len(qRaw) == 0 {
			return true
		}
		q := append([]byte(nil), qRaw...)
		if q[0] == 0 {
			q[0] = 1
		}
		p := pRaw
		quot, rem := PolyDivMod(p, q)
		// p == quot*q + rem (checked by evaluation).
		for x := 0; x < 30; x++ {
			lhs := PolyEval(p, byte(x))
			rhs := Mul(PolyEval(quot, byte(x)), PolyEval(q, byte(x))) ^ PolyEval(rem, byte(x))
			if len(quot) == 0 {
				rhs = PolyEval(rem, byte(x))
			}
			if lhs != rhs {
				return false
			}
		}
		return len(rem) < len(q) || len(q) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPolyDivModByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PolyDivMod([]byte{1, 2, 3}, []byte{})
}

func BenchmarkMul(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Mul(byte(i), byte(i>>8))
	}
}

func BenchmarkPolyEval(b *testing.B) {
	p := make([]byte, 255)
	for i := range p {
		p[i] = byte(i + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PolyEval(p, byte(i))
	}
}
