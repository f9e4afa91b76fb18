package rs

import (
	"bytes"
	"testing"
)

// FuzzRSDecode feeds the decoder arbitrary codewords and erasure
// lists over fuzz-chosen (n, k) geometries. Decode must never panic:
// malformed erasure indexes (negative, duplicate, out of range) and
// unsatisfiable syndromes must come back as errors. It must also agree
// with the reference pipeline on every input: the same returned bytes,
// the same corrected codeword and the same error. When Decode does
// claim success, the result must be a k-byte message whose
// re-encoding reproduces the corrected codeword — success is
// verifiable, not just plausible. CheckSyndromes on the input's
// syndromes must give Decode's verdict.
func FuzzRSDecode(f *testing.F) {
	f.Add([]byte{40, 20})
	f.Add([]byte{255, 128, 1, 2, 3, 4, 5})
	f.Add([]byte{10, 4, 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%254 // [2, 255]
		k := 1 + int(data[1])%(n-1)
		c, err := New(n, k)
		if err != nil {
			t.Fatalf("New(%d, %d): %v", n, k, err)
		}
		rest := data[2:]
		codeword := make([]byte, n)
		copy(codeword, rest)
		var erasures []int
		if len(rest) > n {
			for _, e := range rest[n:] {
				// Deliberately unvalidated: indexes may repeat or fall
				// outside [0, n) — Decode must reject, not crash.
				erasures = append(erasures, int(e)-4)
			}
		}
		corrected := append([]byte(nil), codeword...)
		msg, err := checkAgainstReference(t, c, c.NewDecoder(), corrected, erasures)
		if err != nil {
			return
		}
		if len(msg) != k {
			t.Fatalf("Decode returned %d bytes, want k=%d", len(msg), k)
		}
		recoded, err := c.Encode(append([]byte(nil), msg...))
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(recoded, corrected) {
			t.Errorf("claimed success but the corrected buffer is not a codeword")
		}
	})
}

// checkAgainstReference decodes codeword in place with dec and a copy
// with the reference pipeline, and fails the test unless both return
// the same bytes, leave the same buffer and fail with the same error,
// and unless dec.CheckSyndromes, run first on the codeword's reference
// syndromes, succeeds exactly when Decode does. It returns the
// decoder's result.
func checkAgainstReference(t *testing.T, c *Code, dec *Decoder, codeword []byte, erasures []int) ([]byte, error) {
	t.Helper()
	ref := append([]byte(nil), codeword...)
	checked := dec.CheckSyndromes(c.syndromes(codeword), erasures)
	wantMsg, wantErr := c.referenceDecode(ref, erasures)
	msg, err := dec.Decode(codeword, erasures)
	if checked != (err == nil) {
		t.Fatalf("RS(%d,%d) erasures %v: CheckSyndromes %v, Decode error %v", c.n, c.k, erasures, checked, err)
	}
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("RS(%d,%d) erasures %v: Decode error %v, reference %v", c.n, c.k, erasures, err, wantErr)
	}
	if !bytes.Equal(msg, wantMsg) {
		t.Fatalf("RS(%d,%d) erasures %v: Decode returned %x, reference %x", c.n, c.k, erasures, msg, wantMsg)
	}
	if !bytes.Equal(codeword, ref) {
		t.Fatalf("RS(%d,%d) erasures %v: Decode left codeword %x, reference %x", c.n, c.k, erasures, codeword, ref)
	}
	return msg, err
}
