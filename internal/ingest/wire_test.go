package ingest

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/cie"
	"colorbars/internal/coding"
	"colorbars/internal/colorspace"
	"colorbars/internal/csk"
	"colorbars/internal/modem"
)

// captureFrames images a short CSK8 transmission through prof and
// returns the frames (the realistic pixel distribution for codec
// tests: saturated whites, dark OFF rows, noise on every level).
func captureFrames(t testing.TB, prof camera.Profile, seed int64, seconds float64) []*camera.Frame {
	t.Helper()
	const (
		order = csk.CSK8
		rate  = 2000.0
	)
	params := coding.Params{
		SymbolRate:   rate,
		FrameRate:    prof.FrameRate,
		LossRatio:    prof.LossRatio(),
		Order:        order,
		DataFraction: 0.8,
	}
	code, err := params.LinkCodeErasure()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := modem.NewTransmitter(modem.TxConfig{
		Order: order, SymbolRate: rate, WhiteFraction: 0.2, Power: 1,
		Triangle: cie.SRGBTriangle, CalibrationEvery: 3, Code: code,
	})
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, code.K())
	for i := range msg {
		msg[i] = byte(int(seed) + 31*i)
	}
	w, err := tx.BuildWaveformRepeating(msg, seconds)
	if err != nil {
		t.Fatal(err)
	}
	frames := camera.New(prof, seed).CaptureVideo(w, 0, int(seconds*prof.FrameRate))
	if len(frames) == 0 {
		t.Fatal("no frames captured")
	}
	return frames
}

// TestFrameCodecLossless: a captured frame survives the wire
// bit-exactly at both pixel widths — the 8-bit phone path (1 byte per
// component) and the 16-bit ideal path (2 bytes) — because the codec
// transports the sensor's integer quantization level and re-runs the
// sensor's own division.
func TestFrameCodecLossless(t *testing.T) {
	for _, tc := range []struct {
		prof camera.Profile
		want int // bytes per pixel component
	}{
		{camera.Nexus5(), 1},
		{camera.Ideal(), 2},
	} {
		frames := captureFrames(t, tc.prof, 3, 0.2)
		for fi, f := range frames {
			raw, err := encodeFrame(nil, 7, uint64(fi), f, tc.prof.QuantBits)
			if err != nil {
				t.Fatalf("%s frame %d: %v", tc.prof.Name, fi, err)
			}
			wantLen := 16 + frameHeaderSize + len(f.Pix)*3*tc.want
			if len(raw) != wantLen {
				t.Fatalf("%s: encoded %d bytes, want %d", tc.prof.Name, len(raw), wantLen)
			}
			sid, seq, got, err := decodeFrame(raw)
			if err != nil {
				t.Fatalf("%s frame %d: %v", tc.prof.Name, fi, err)
			}
			if sid != 7 || seq != uint64(fi) {
				t.Fatalf("%s: stamp (%d,%d), want (7,%d)", tc.prof.Name, sid, seq, fi)
			}
			if got.Rows != f.Rows || got.Cols != f.Cols ||
				math.Float64bits(got.Start) != math.Float64bits(f.Start) ||
				math.Float64bits(got.Exposure) != math.Float64bits(f.Exposure) ||
				math.Float64bits(got.ISO) != math.Float64bits(f.ISO) ||
				math.Float64bits(got.RowTime) != math.Float64bits(f.RowTime) {
				t.Fatalf("%s: frame metadata mutated: %+v vs %+v", tc.prof.Name, got, f)
			}
			for i := range f.Pix {
				if math.Float64bits(got.Pix[i].R) != math.Float64bits(f.Pix[i].R) ||
					math.Float64bits(got.Pix[i].G) != math.Float64bits(f.Pix[i].G) ||
					math.Float64bits(got.Pix[i].B) != math.Float64bits(f.Pix[i].B) {
					t.Fatalf("%s frame %d pixel %d: %v != %v (bits differ)",
						tc.prof.Name, fi, i, got.Pix[i], f.Pix[i])
				}
			}
		}
	}
}

// oldGridRule is the acceptance rule the codec had before it went
// table-driven: v is on the width-q grid when rounding v·max to a
// level and dividing back reproduces v.
func oldGridRule(v float64, q int) bool {
	maxLevel := float64(uint32(1)<<q - 1)
	k := math.Round(v * maxLevel)
	return !(k < 0 || k > maxLevel || v != k/maxLevel)
}

// comp points at component i (0 R, 1 G, 2 B) of p.
func comp(p *colorspace.RGB, i int) *float64 {
	return [3]*float64{&p.R, &p.G, &p.B}[i]
}

// gridFrame is a one-row frame holding values[i] in component i%3 of
// pixel i/3.
func gridFrame(values []float64) *camera.Frame {
	f := &camera.Frame{Rows: 1, Cols: (len(values) + 2) / 3, Start: 1.5, Exposure: 1e-3, ISO: 100, RowTime: 1e-5}
	f.Pix = make([]colorspace.RGB, f.Cols)
	for i, v := range values {
		*comp(&f.Pix[i/3], i%3) = v
	}
	return f
}

// TestFrameCodecGridEquivalence pins the table-driven codec to the
// division it replaced. Every level of every tested width round-trips
// bit-exactly; encode accepts exactly the values the old rule
// v == math.Round(v·max)/max accepts, probed at every level's float64
// neighbours and at the special values; a recycled frame carries
// nothing stale; and a level above a narrow width's maximum, a width
// mismatch or a bad width are errors, never a silent re-round —
// re-rounding would break decode-digest equality between the wire path
// and the in-process path.
func TestFrameCodecGridEquivalence(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), 1, math.Nextafter(1, 2), 1.5, 2, 255, 65535, 1e300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		-1e-300, -0.25, -1, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	reused := &camera.Frame{}
	for _, q := range []int{1, 2, 8, 10, 16} {
		maxLevel := float64(uint32(1)<<q - 1)
		n := 1 << q

		// Every level, built the way the camera's ADC builds it,
		// survives encode and decode bit for bit.
		grid := make([]float64, n)
		for k := range grid {
			grid[k] = math.Round(float64(k)/maxLevel*maxLevel) / maxLevel
		}
		f := gridFrame(grid)
		raw, err := encodeFrame(nil, 3, 4, f, q)
		if err != nil {
			t.Fatalf("q=%d: encoding every level: %v", q, err)
		}
		// The wire format is unchanged: component i carries level i,
		// big-endian above 8 bits.
		px := raw[16+frameHeaderSize:]
		for k := range grid {
			level := int(px[k])
			if q > 8 {
				level = int(px[2*k])<<8 | int(px[2*k+1])
			}
			if level != k {
				t.Fatalf("q=%d: level %d went on the wire as %d", q, k, level)
			}
		}
		if _, _, err := decodeFrameInto(raw, reused); err != nil {
			t.Fatalf("q=%d: decoding every level: %v", q, err)
		}
		for i := range f.Pix {
			w, g := f.Pix[i], reused.Pix[i]
			if math.Float64bits(w.R) != math.Float64bits(g.R) ||
				math.Float64bits(w.G) != math.Float64bits(g.G) ||
				math.Float64bits(w.B) != math.Float64bits(g.B) {
				t.Fatalf("q=%d pixel %d: decoded %v, want %v (bits differ)", q, i, g, w)
			}
		}

		// Encode accepts exactly what the old rule accepts.
		probes := append([]float64(nil), specials...)
		for _, v := range grid {
			probes = append(probes, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		}
		for i, v := range probes {
			one := gridFrame([]float64{0, 0, 0})
			*comp(&one.Pix[0], i%3) = v
			raw, err := encodeFrame(nil, 1, 0, one, q)
			if want := oldGridRule(v, q); (err == nil) != want {
				t.Fatalf("q=%d: component %v (bits %016x): encode error %v, old rule accepts %v",
					q, v, math.Float64bits(v), err, want)
			}
			if err != nil {
				continue
			}
			if _, _, err := decodeFrameInto(raw, reused); err != nil {
				t.Fatalf("q=%d: accepted component %v does not decode: %v", q, v, err)
			}
			if got := *comp(&reused.Pix[0], i%3); got != v {
				t.Fatalf("q=%d: component %v decoded as %v", q, v, got)
			}
		}

		// A level above the width's maximum is rejected wherever the
		// width leaves room for one on the wire.
		if q != 8 && q != 16 {
			body, err := encodeFrame(nil, 1, 0, gridFrame([]float64{0, 0, 0, 0, 0, 0}), q)
			if err != nil {
				t.Fatal(err)
			}
			if q > 8 {
				body[len(body)-2], body[len(body)-1] = byte(n>>8), byte(n)
			} else {
				body[len(body)-1] = byte(n)
			}
			if _, _, err := decodeFrameInto(body, reused); err == nil {
				t.Errorf("q=%d: level %d accepted", q, n)
			}
		}
	}

	// Decoding into a dirty, larger frame reuses its storage and
	// leaves exactly Rows·Cols fresh pixels and fresh metadata.
	big := &camera.Frame{Rows: 40, Cols: 40, Pix: make([]colorspace.RGB, 1600), Start: math.NaN(), ISO: -1}
	for i := range big.Pix {
		big.Pix[i] = colorspace.RGB{R: math.NaN(), G: 7, B: -3}
	}
	var values []float64
	for _, k := range []float64{0, 255, 128, 255, 0, 255, 64, 191, 255} {
		values = append(values, k/255)
	}
	small := gridFrame(values)
	raw, err := encodeFrame(nil, 1, 9, small, 8)
	if err != nil {
		t.Fatal(err)
	}
	storage := &big.Pix[0]
	if _, seq, err := decodeFrameInto(raw, big); err != nil || seq != 9 {
		t.Fatalf("dirty reuse: seq %d err %v", seq, err)
	}
	if big.Rows != small.Rows || big.Cols != small.Cols || len(big.Pix) != big.Rows*big.Cols {
		t.Fatalf("dirty reuse: %dx%d with %d pixels", big.Rows, big.Cols, len(big.Pix))
	}
	if &big.Pix[0] != storage {
		t.Error("dirty reuse reallocated pixel storage that was large enough")
	}
	if big.Start != small.Start || big.ISO != small.ISO || big.Exposure != small.Exposure || big.RowTime != small.RowTime {
		t.Errorf("dirty reuse kept stale metadata: %+v", *big)
	}
	for i := range small.Pix {
		if big.Pix[i] != small.Pix[i] {
			t.Errorf("dirty reuse pixel %d: %v, want %v", i, big.Pix[i], small.Pix[i])
		}
	}

	// Width mismatches and bad widths fail to encode.
	capture := captureFrames(t, camera.Nexus5(), 4, 0.1)[0]
	for _, q := range []int{12, 0, 17} {
		if _, err := encodeFrame(nil, 1, 0, capture, q); err == nil {
			t.Errorf("8-bit capture accepted at quantBits %d", q)
		}
	}
}

// TestFrameDecodeRejectsHostileGeometry: a rows×cols product that
// wraps a signed int negative must not slip past the size bound. Both
// pairs below wrap to a negative count whose 3- or 6-byte payload
// length wraps back to the tiny payload supplied, which once reached
// make() with a negative length and crashed the server.
func TestFrameDecodeRejectsHostileGeometry(t *testing.T) {
	for _, tc := range []struct {
		rows, cols uint32
		quantBits  byte
		payload    int
	}{
		{4239809835, 2900561549, 8, 13},
		{4294836226, 2147549185, 16, 12},
		{0, 5, 8, 0},
		{5, 0, 8, 0},
		{1 << 16, 1 << 16, 8, 0},
	} {
		body := make([]byte, 16+frameHeaderSize+tc.payload)
		binary.BigEndian.PutUint32(body[16:], tc.rows)
		binary.BigEndian.PutUint32(body[20:], tc.cols)
		body[16+40] = tc.quantBits
		if _, _, err := decodeFrameInto(body, &camera.Frame{}); err == nil {
			t.Errorf("geometry %dx%d accepted", tc.rows, tc.cols)
		}
	}
}

// TestFrameDecodeRejectsBadTiming: a FRAME's exposure and row time
// come off the wire as raw float64s, and a receiver given a zero,
// negative or NaN row time, or a NaN, infinite or negative exposure,
// once panicked and took the ingest process down. Those are decode
// errors now; finite positive timings, however extreme, are accepted
// (the receiver's own tests cover what it makes of them).
func TestFrameDecodeRejectsBadTiming(t *testing.T) {
	for _, tc := range []struct {
		exposure, rowTime float64
		ok                bool
	}{
		{1e-3, 0, false},
		{1e-3, -1e-5, false},
		{1e-3, math.NaN(), false},
		{1e-3, math.Inf(1), false},
		{math.NaN(), 1e-5, false},
		{math.Inf(1), 1e-5, false},
		{-1, 1e-5, false},
		{1e300, 1e-300, true},
		{1e-3, 1e-300, true},
		{0, 1e-5, true},
	} {
		f := gridFrame([]float64{0, 1, 128.0 / 255})
		f.Exposure, f.RowTime = tc.exposure, tc.rowTime
		body, err := encodeFrame(nil, 1, 2, f, 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeFrameInto(body, &camera.Frame{}); (err == nil) != tc.ok {
			t.Errorf("exposure %v, row time %v: decode error %v, want accepted=%v", tc.exposure, tc.rowTime, err, tc.ok)
		}
	}
}

// TestMessageRoundTrips covers every control message codec plus the
// framing layer itself.
func TestMessageRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	hello := Hello{
		DeviceID: "nexus5-042", Order: 16, SymbolRate: 3000,
		WhiteFraction: 0.2, DataFraction: 0.8, FrameRate: 30, LossRatio: 0.31,
	}
	hb, err := hello.encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMessage(&buf, msgHello, hb); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readMessage(&buf, nil)
	if err != nil || typ != msgHello {
		t.Fatalf("framing: typ %d err %v", typ, err)
	}
	gotHello, err := decodeHello(body)
	if err != nil || gotHello != hello {
		t.Fatalf("hello round trip: %+v err %v", gotHello, err)
	}

	w := Welcome{SessionID: 9, Shard: 3, CalSnapshot: []byte{1, 2, 3}}
	gw, err := decodeWelcome(w.encode())
	if err != nil || gw.SessionID != 9 || gw.Shard != 3 || !bytes.Equal(gw.CalSnapshot, w.CalSnapshot) {
		t.Fatalf("welcome round trip: %+v err %v", gw, err)
	}
	gw, err = decodeWelcome(Welcome{SessionID: 1}.encode())
	if err != nil || gw.CalSnapshot != nil {
		t.Fatalf("empty-snapshot welcome: %+v err %v", gw, err)
	}

	ga, err := decodeAck(Ack{Seq: 1 << 40, LatencyUs: 1234}.encode())
	if err != nil || ga.Seq != 1<<40 || ga.LatencyUs != 1234 {
		t.Fatalf("ack round trip: %+v err %v", ga, err)
	}
	gs, err := decodeShed(Shed{Seq: 77, Reason: ShedQueue}.encode())
	if err != nil || gs.Seq != 77 || gs.Reason != ShedQueue {
		t.Fatalf("shed round trip: %+v err %v", gs, err)
	}
	gb, err := decodeBlock(Block{Recovered: true, Data: []byte("abc")}.encode())
	if err != nil || !gb.Recovered || string(gb.Data) != "abc" {
		t.Fatalf("block round trip: %+v err %v", gb, err)
	}
	st := Stats{FramesIn: 10, Admitted: 8, ShedTokens: 1, ShedQueue: 1, Blocks: 4, BlocksOK: 3, CalCached: true}
	gst, err := decodeStats(st.encode())
	if err != nil || gst != st {
		t.Fatalf("stats round trip: %+v err %v", gst, err)
	}

	// Framing rejects version skew and hostile lengths.
	if err := writeMessage(&buf, msgAck, Ack{}.encode()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // version byte
	if _, _, err := readMessage(bytes.NewReader(raw), nil); err == nil {
		t.Error("version skew accepted")
	}
	if _, _, err := readMessage(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 1}), nil); err == nil {
		t.Error("hostile length prefix accepted")
	}
	if _, err := (Hello{DeviceID: "", Order: 8}).encode(); err == nil {
		t.Error("empty device id accepted")
	}
}
