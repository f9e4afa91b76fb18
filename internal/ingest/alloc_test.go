package ingest

import (
	"bytes"
	"testing"

	"colorbars/internal/camera"
)

// TestFramePathZeroAlloc: once warm, the server's FRAME intake — read
// the message into the connection's reused buffer, decode it into a
// pooled frame, hand the frame back — allocates nothing.
func TestFramePathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	f := captureFrames(t, camera.Nexus5(), 5, 0.1)[0]
	body, err := encodeFrame(nil, 1, 2, f, camera.Nexus5().QuantBits)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := writeMessage(&wire, msgFrame, body); err != nil {
		t.Fatal(err)
	}
	msg := wire.Bytes()
	var (
		r    = bytes.NewReader(msg)
		pool framePool
		buf  []byte
	)
	step := func() {
		r.Reset(msg)
		typ, body, err := readMessage(r, buf, sessionMsgs)
		if err != nil || typ != msgFrame {
			t.Fatalf("read: type %d err %v", typ, err)
		}
		buf = body
		seq, frame, err := pool.decode(body)
		if err != nil || seq != 2 {
			t.Fatalf("decode: seq %d err %v", seq, err)
		}
		pool.put(frame)
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("FRAME read+decode+release: %.1f allocs/op, want 0", allocs)
	}
}

var benchBody []byte

// BenchmarkFrameCodec times one mid-capture frame of each device
// profile through the wire codec: encode into a reused buffer, and
// decode into a reused frame (both sized before timing starts).
func BenchmarkFrameCodec(b *testing.B) {
	for _, prof := range []camera.Profile{camera.Nexus5(), camera.IPhone5S(), camera.Ideal()} {
		frames := captureFrames(b, prof, 3, 0.2)
		f := frames[len(frames)/2]
		body, err := encodeFrame(nil, 1, 0, f, prof.QuantBits)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 0, len(body))
		dst := &camera.Frame{}
		if _, _, err := decodeFrameInto(body, dst); err != nil {
			b.Fatal(err)
		}
		b.Run(prof.Name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if buf, err = encodeFrame(buf[:0], 1, uint64(i), f, prof.QuantBits); err != nil {
					b.Fatal(err)
				}
			}
			benchBody = buf
		})
		b.Run(prof.Name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, _, err := decodeFrameInto(body, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
