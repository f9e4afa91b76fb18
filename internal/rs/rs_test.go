package rs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		n, k int
		ok   bool
	}{
		{255, 223, true},
		{10, 6, true},
		{2, 1, true},
		{255, 255, false},
		{256, 200, false},
		{5, 0, false},
		{5, 6, false},
		{0, 0, false},
	}
	for _, tc := range cases {
		_, err := New(tc.n, tc.k)
		if (err == nil) != tc.ok {
			t.Errorf("New(%d,%d) err=%v, want ok=%v", tc.n, tc.k, err, tc.ok)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustNew(1, 1)
}

func TestEncodeSystematic(t *testing.T) {
	c := MustNew(20, 12)
	data := []byte("hello world!")
	cw, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(cw) != 20 {
		t.Fatalf("codeword length %d", len(cw))
	}
	if !bytes.Equal(cw[:12], data) {
		t.Error("encoding not systematic")
	}
}

func TestEncodeWrongLength(t *testing.T) {
	c := MustNew(20, 12)
	if _, err := c.Encode(make([]byte, 5)); err == nil {
		t.Error("expected length error")
	}
}

func TestDecodeClean(t *testing.T) {
	c := MustNew(30, 20)
	data := make([]byte, 20)
	for i := range data {
		data[i] = byte(i * 7)
	}
	cw, _ := c.Encode(data)
	got, err := c.Decode(cw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("clean decode mismatch")
	}
}

func TestDecodeSingleError(t *testing.T) {
	c := MustNew(30, 20)
	data := []byte("twenty data bytes!!!")
	for pos := 0; pos < 30; pos++ {
		cw, _ := c.Encode(data)
		cw[pos] ^= 0x5a
		got, err := c.Decode(cw, nil)
		if err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("pos %d: decode mismatch", pos)
		}
	}
}

func TestDecodeMaxErrors(t *testing.T) {
	c := MustNew(40, 20) // t = 10
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 20)
	rng.Read(data)
	for trial := 0; trial < 50; trial++ {
		cw, _ := c.Encode(data)
		positions := rng.Perm(40)[:10]
		for _, p := range positions {
			cw[p] ^= byte(1 + rng.Intn(255))
		}
		got, err := c.Decode(cw, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d: mismatch", trial)
		}
	}
}

func TestDecodeTooManyErrorsDetected(t *testing.T) {
	c := MustNew(40, 20) // t = 10
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 20)
	rng.Read(data)
	detected := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		cw, _ := c.Encode(data)
		positions := rng.Perm(40)[:13] // beyond capability
		for _, p := range positions {
			cw[p] ^= byte(1 + rng.Intn(255))
		}
		got, err := c.Decode(cw, nil)
		if err != nil || !bytes.Equal(got, data) {
			detected++
		}
	}
	// With 13 errors against t=10, almost all trials must fail or
	// miscorrect; silent "success" returning the right data would mean
	// the test harness is broken.
	if detected < trials*9/10 {
		t.Errorf("only %d/%d overload trials detected", detected, trials)
	}
}

func TestDecodeErasuresOnly(t *testing.T) {
	c := MustNew(30, 20) // 10 parity -> up to 10 erasures
	data := []byte("erasure test payload")
	rng := rand.New(rand.NewSource(3))
	for numEras := 1; numEras <= 10; numEras++ {
		cw, _ := c.Encode(data)
		positions := rng.Perm(30)[:numEras]
		for _, p := range positions {
			cw[p] = 0 // simulate lost symbol
		}
		got, err := c.Decode(cw, positions)
		if err != nil {
			t.Fatalf("erasures=%d: %v", numEras, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("erasures=%d: mismatch", numEras)
		}
	}
}

func TestDecodeErrorsPlusErasures(t *testing.T) {
	// 2·errors + erasures <= n-k must decode. n-k = 12.
	c := MustNew(32, 20)
	data := []byte("mixed corruption....")
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		numEras := rng.Intn(7)                // 0..6
		numErr := (12 - numEras) / 2          // max errors
		perm := rng.Perm(32)[:numEras+numErr] // distinct positions
		cw, _ := c.Encode(data)
		eras := perm[:numEras]
		for _, p := range eras {
			cw[p] ^= byte(1 + rng.Intn(255))
		}
		for _, p := range perm[numEras:] {
			cw[p] ^= byte(1 + rng.Intn(255))
		}
		got, err := c.Decode(cw, eras)
		if err != nil {
			t.Fatalf("trial %d (e=%d, v=%d): %v", trial, numEras, numErr, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d: mismatch", trial)
		}
	}
}

func TestDecodeTooManyErasures(t *testing.T) {
	c := MustNew(20, 12)
	cw, _ := c.Encode(make([]byte, 12))
	eras := make([]int, 9) // > n-k = 8
	for i := range eras {
		eras[i] = i
	}
	if _, err := c.Decode(cw, eras); err == nil {
		t.Error("expected ErrTooManyErrors")
	}
}

func TestDecodeErasureOutOfRange(t *testing.T) {
	c := MustNew(20, 12)
	cw, _ := c.Encode(make([]byte, 12))
	if _, err := c.Decode(cw, []int{20}); err == nil {
		t.Error("expected range error")
	}
	if _, err := c.Decode(cw, []int{-1}); err == nil {
		t.Error("expected range error")
	}
}

func TestDecodeWrongLength(t *testing.T) {
	c := MustNew(20, 12)
	if _, err := c.Decode(make([]byte, 10), nil); err == nil {
		t.Error("expected length error")
	}
}

func TestAccessors(t *testing.T) {
	c := MustNew(255, 223)
	if c.N() != 255 || c.K() != 223 || c.ParityBytes() != 32 || c.CorrectableErrors() != 16 {
		t.Errorf("accessors wrong: %d %d %d %d", c.N(), c.K(), c.ParityBytes(), c.CorrectableErrors())
	}
}

// Property: for random (n, k), random data, and random corruption
// within capability, decode always recovers the original data.
func TestQuickEncodeCorruptDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(100)
		parity := 2 + 2*r.Intn(10) // even parity count 2..20
		n := k + parity
		if n > 255 {
			n = 255
			k = n - parity
		}
		c := MustNew(n, k)
		data := make([]byte, k)
		r.Read(data)
		cw, err := c.Encode(data)
		if err != nil {
			return false
		}
		numErr := r.Intn(parity/2 + 1)
		for _, p := range r.Perm(n)[:numErr] {
			cw[p] ^= byte(1 + r.Intn(255))
		}
		got, err := c.Decode(cw, nil)
		return err == nil && bytes.Equal(got, data)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: any valid codeword evaluates to zero at all generator
// roots (i.e., has all-zero syndromes).
func TestQuickCodewordSyndromes(t *testing.T) {
	c := MustNew(50, 30)
	f := func(data []byte) bool {
		d := make([]byte, 30)
		copy(d, data)
		cw, err := c.Encode(d)
		if err != nil {
			return false
		}
		return allZero(c.syndromes(cw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The ColorBars paper's worked example (§5): 150 bands per frame, 30
// lost, 8-CSK (3 bits), 20% illumination symbols → message ≈ 36 bytes.
func TestPaperWorkedExample(t *testing.T) {
	const (
		FS     = 150.0 // symbols per frame
		LS     = 30.0  // symbols lost per gap
		C      = 3.0   // bits per 8-CSK symbol
		alphaS = 4.0 / 5.0
	)
	nBits := alphaS * C * (FS + LS)
	kBits := alphaS * C * (FS - LS)
	if got := kBits / 8; got != 36 {
		t.Errorf("message size = %v bytes, want 36", got)
	}
	n := int(nBits / 8)
	k := int(kBits / 8)
	c, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	// A burst of LS symbols = alphaS*C*LS bits = 9 bytes erased must
	// be recoverable: parity = n-k = 18 >= 9 erasures... and also as
	// blind errors since t = 9.
	data := make([]byte, k)
	for i := range data {
		data[i] = byte(i)
	}
	cw, _ := c.Encode(data)
	burstStart := 10
	var eras []int
	for i := 0; i < 9; i++ {
		cw[burstStart+i] = 0
		eras = append(eras, burstStart+i)
	}
	got, err := c.Decode(cw, eras)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("burst erasure recovery failed")
	}
}

func BenchmarkEncode(b *testing.B) {
	c := MustNew(200, 160)
	data := make([]byte, 160)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(160)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeClean(b *testing.B) {
	c := MustNew(200, 160)
	data := make([]byte, 160)
	rand.New(rand.NewSource(1)).Read(data)
	cw, _ := c.Encode(data)
	b.SetBytes(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := append([]byte(nil), cw...)
		if _, err := c.Decode(buf, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeMaxErrors(b *testing.B) {
	c := MustNew(200, 160) // t = 20
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 160)
	rng.Read(data)
	cw, _ := c.Encode(data)
	corrupted := append([]byte(nil), cw...)
	for _, p := range rng.Perm(200)[:20] {
		corrupted[p] ^= 0xff
	}
	b.SetBytes(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := append([]byte(nil), corrupted...)
		if _, err := c.Decode(buf, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeWrongErasures times the failure path the receiver's
// loss-split search takes on almost every attempt: RS(35,17), the
// default 4-CSK link's code, with 14 erased bytes (inside the parity
// budget less the 4-byte verification slack) declared four bytes
// after where the loss really fell: four undeclared errors plus 14
// erasures need 22 parity bytes, and the code has 18.
func BenchmarkDecodeWrongErasures(b *testing.B) {
	c := MustNew(35, 17)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 17)
	rng.Read(data)
	cw, _ := c.Encode(data)
	erasures := make([]int, 14)
	for i := range erasures {
		cw[10+i] = 0
		erasures[i] = 14 + i
	}
	dec := c.NewDecoder()
	buf := make([]byte, len(cw))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, cw)
		if _, err := dec.Decode(buf, erasures); err == nil {
			b.Fatal("a wrong erasure set decoded")
		}
	}
}
