package ingest

import (
	"bytes"
	"encoding/binary"
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/csk"
	"colorbars/internal/modem"
	"colorbars/internal/rs"
)

// Decoders FuzzWireFrame selects with its input's first byte.
const (
	fuzzFrame = iota
	fuzzHello
	fuzzWelcome
	fuzzAck
	fuzzShed
	fuzzBlock
	fuzzStats
	fuzzKinds
)

// FuzzWireFrame feeds arbitrary bodies to every decode* function; the
// first input byte picks the decoder, the rest is the body. FRAME
// bodies decode into one frame reused across inputs, the way the
// server's pool reuses them. No input may panic; an accepted FRAME
// must leave exactly Rows·Cols pixels; and every accepted body must
// re-encode to itself, so the decoders accept only what the encoders
// produce. Every accepted FRAME also goes through a receiver's
// Analyze, which must not panic on any timing the wire lets through.
func FuzzWireFrame(f *testing.F) {
	frameBody := func(q int, levels ...float64) []byte {
		b, err := encodeFrame(nil, 7, 9, gridFrame(levels), q)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	seed := func(kind byte, body []byte) { f.Add(append([]byte{kind}, body...)) }

	narrow := frameBody(8, 0, 1, 128.0/255, 1.0/255, 254.0/255, 0)
	wide := frameBody(16, 0, 1, 40000.0/65535, 1.0/65535, 7.0/65535, 1)
	seed(fuzzFrame, narrow)
	seed(fuzzFrame, wide)
	seed(fuzzFrame, frameBody(1, 0, 1, 1))
	seed(fuzzFrame, frameBody(10, 0, 1, 1000.0/1023))
	seed(fuzzFrame, narrow[:len(narrow)-1]) // truncated payload
	seed(fuzzFrame, narrow[:20])            // truncated header
	badQ := bytes.Clone(narrow)
	badQ[16+40] = 17
	seed(fuzzFrame, badQ)
	overRange := frameBody(3, 0, 1, 0)
	overRange[len(overRange)-1] = 8 // level 8 at 3 bits
	seed(fuzzFrame, overRange)
	hostile := make([]byte, 16+frameHeaderSize+13) // rows·cols wraps negative
	binary.BigEndian.PutUint32(hostile[16:], 4239809835)
	binary.BigEndian.PutUint32(hostile[20:], 2900561549)
	hostile[16+40] = 8
	seed(fuzzFrame, hostile)
	zeroRowTime := bytes.Clone(narrow) // once crashed Analyze
	binary.BigEndian.PutUint64(zeroRowTime[16+32:], 0)
	seed(fuzzFrame, zeroRowTime)

	hello, err := Hello{DeviceID: "fuzz-01", Order: 16, SymbolRate: 4000, FrameRate: 30}.encode()
	if err != nil {
		f.Fatal(err)
	}
	seed(fuzzHello, hello)
	seed(fuzzWelcome, Welcome{SessionID: 3, Shard: 1, CalSnapshot: []byte{1, 2, 3}}.encode())
	seed(fuzzAck, Ack{Seq: 5, LatencyUs: 900}.encode())
	seed(fuzzShed, Shed{Seq: 6, Reason: ShedQueue}.encode())
	seed(fuzzBlock, Block{Recovered: true, Data: []byte("abc")}.encode())
	seed(fuzzStats, Stats{FramesIn: 4, Admitted: 3, Blocks: 2, BlocksOK: 1, CalCached: true}.encode())

	rx, err := modem.NewReceiver(modem.RxConfig{
		Order: csk.CSK4, SymbolRate: 1500, WhiteFraction: 0.2, Code: rs.MustNew(35, 17),
	})
	if err != nil {
		f.Fatal(err)
	}
	reused := &camera.Frame{}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		body := data[1:]
		var (
			again []byte
			err   error
		)
		switch data[0] % fuzzKinds {
		case fuzzFrame:
			sid, seq, derr := decodeFrameInto(body, reused)
			if derr != nil {
				return
			}
			if len(reused.Pix) != reused.Rows*reused.Cols {
				t.Fatalf("accepted FRAME left %d pixels for %dx%d", len(reused.Pix), reused.Rows, reused.Cols)
			}
			rx.Analyze(reused)
			again, err = encodeFrame(nil, sid, seq, reused, int(body[16+40]))
		case fuzzHello:
			h, derr := decodeHello(body)
			if derr != nil {
				return
			}
			again, err = h.encode()
		case fuzzWelcome:
			w, derr := decodeWelcome(body)
			if derr != nil {
				return
			}
			again = w.encode()
		case fuzzAck:
			a, derr := decodeAck(body)
			if derr != nil {
				return
			}
			again = a.encode()
		case fuzzShed:
			s, derr := decodeShed(body)
			if derr != nil {
				return
			}
			again = s.encode()
		case fuzzBlock:
			b, derr := decodeBlock(body)
			if derr != nil {
				return
			}
			again = b.encode()
		case fuzzStats:
			s, derr := decodeStats(body)
			if derr != nil {
				return
			}
			again = s.encode()
		}
		if err != nil {
			t.Fatalf("decoder %d accepted a body its encoder refuses: %v", data[0]%fuzzKinds, err)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("decoder %d: re-encoding changed the body\n got %x\nwant %x", data[0]%fuzzKinds, again, body)
		}
	})
}
