package modem

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/channel"
	"colorbars/internal/cie"
	"colorbars/internal/coding"
	"colorbars/internal/colorspace"
	"colorbars/internal/csk"
	"colorbars/internal/led"
	"colorbars/internal/packet"
	"colorbars/internal/rs"
)

// TestAmbientLightRobustness checks §6.2's claim that periodic
// calibration lets receivers adapt to the channel: strong white
// ambient light desaturates every received color, and the link must
// keep decoding because the calibration references shift with it.
func TestAmbientLightRobustness(t *testing.T) {
	prof := camera.Ideal()
	params := coding.Params{
		SymbolRate: 2000, FrameRate: prof.FrameRate, LossRatio: prof.LossRatio(),
		Order: csk.CSK16, DataFraction: 0.8,
	}
	code, err := params.LinkCodeErasure()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := NewTransmitter(TxConfig{
		Order: csk.CSK16, SymbolRate: 2000, WhiteFraction: 0.2, Power: 1,
		Triangle: cie.SRGBTriangle, CalibrationEvery: 4, Code: code,
	})
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, code.K())
	for i := range msg {
		msg[i] = byte(i)
	}
	w, err := tx.BuildWaveformRepeating(msg, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Ambient at 25% of the LED's radiance: a strongly lit room.
	ch, err := channel.New(channel.Config{
		Distance: 0.03, ReferenceDistance: 0.03,
		Ambient: colorspace.RGB{R: 0.25, G: 0.25, B: 0.25},
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(RxConfig{
		Order: csk.CSK16, SymbolRate: 2000, WhiteFraction: 0.2, Code: code,
	})
	if err != nil {
		t.Fatal(err)
	}
	cam := camera.New(prof, 3)
	ok := 0
	for _, f := range cam.CaptureVideo(ch, 0, 90) {
		for _, b := range rx.ProcessFrame(f) {
			if b.Recovered && string(b.Data) == string(msg) {
				ok++
			}
		}
	}
	if ok < 10 {
		t.Errorf("only %d blocks recovered under strong ambient (stats %+v)", ok, rx.Stats())
	}
}

// TestReceiverNeverPanicsOnNoise feeds the receiver frames of pure
// sensor noise (no LED at all): it must produce no packets and no
// panics.
func TestReceiverNeverPanicsOnNoise(t *testing.T) {
	prof := camera.Nexus5()
	code, err := (coding.Params{
		SymbolRate: 2000, FrameRate: prof.FrameRate, LossRatio: prof.LossRatio(),
		Order: csk.CSK8, DataFraction: 0.8,
	}).LinkCodeErasure()
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(RxConfig{
		Order: csk.CSK8, SymbolRate: 2000, WhiteFraction: 0.2, Code: code,
	})
	if err != nil {
		t.Fatal(err)
	}
	// "Waveform": a dark room with flickering dim ambient.
	rng := rand.New(rand.NewSource(11))
	drives := make([]colorspace.RGB, 4000)
	for i := range drives {
		v := rng.Float64() * 0.01
		drives[i] = colorspace.RGB{R: v, G: v * rng.Float64(), B: v * rng.Float64()}
	}
	w, err := led.NewWaveform(led.Config{SymbolRate: 2000, Power: 1}, drives)
	if err != nil {
		t.Fatal(err)
	}
	cam := camera.New(prof, 11)
	var blocks []Block
	for _, f := range cam.CaptureVideo(w, 0, 30) {
		blocks = append(blocks, rx.ProcessFrame(f)...)
	}
	blocks = append(blocks, rx.Flush()...)
	for _, b := range blocks {
		if b.Recovered {
			t.Error("receiver hallucinated a block from noise")
		}
	}
}

// TestDeframerNeverPanics pushes random symbol streams (including gap
// markers and out-of-range kinds) through the deframer.
func TestDeframerNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		d := packet.NewDeframer(packet.Config{Order: csk.CSK8, WhiteFraction: 0.2})
		n := rng.Intn(500)
		var stream []packet.RxSymbol
		for i := 0; i < n; i++ {
			s := packet.RxSymbol{
				Kind: packet.Kind(rng.Intn(5)), // includes one invalid kind
				AB: colorspace.AB{
					A: rng.Float64()*200 - 100,
					B: rng.Float64()*200 - 100,
				},
			}
			stream = append(stream, s)
		}
		// Random chunking.
		for len(stream) > 0 {
			k := 1 + rng.Intn(20)
			if k > len(stream) {
				k = len(stream)
			}
			d.Push(stream[:k])
			stream = stream[k:]
		}
		d.Flush()
	}
}

// TestDecodeDataNeverPanicsOnRandomPackets drives the receiver's data
// decoder with structurally valid but content-random packets.
func TestDecodeDataNeverPanicsOnRandomPackets(t *testing.T) {
	prof := camera.Ideal()
	code, err := (coding.Params{
		SymbolRate: 2000, FrameRate: prof.FrameRate, LossRatio: prof.LossRatio(),
		Order: csk.CSK8, DataFraction: 0.8,
	}).LinkCodeErasure()
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(RxConfig{
		Order: csk.CSK8, SymbolRate: 2000, WhiteFraction: 0.2, Code: code,
		UseFactoryReferences: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		nSlots := rng.Intn(200)
		pkt := packet.RxPacket{Kind: packet.PacketData}
		for i := 0; i < nSlots; i++ {
			kind := packet.KindData
			if rng.Intn(5) == 0 {
				kind = packet.KindWhite
			}
			pkt.Slots = append(pkt.Slots, packet.RxSlot{
				Kind: kind,
				AB:   colorspace.AB{A: rng.Float64()*200 - 100, B: rng.Float64()*200 - 100},
			})
		}
		for g := 0; g < rng.Intn(3); g++ {
			if nSlots > 0 {
				pkt.Gaps = append(pkt.Gaps, rng.Intn(nSlots))
			}
		}
		// Must not panic; recovery of random noise is astronomically
		// unlikely but harmless if the syndrome check passes.
		var blk Block
		rx.handlePacket(pkt, &blk)
	}
}

// TestImpossibleSizeFieldRejectedEarly pins the size-field bound: a
// declared payload size outside [SlotsForData(D), SlotsForData(D+1)),
// D one codeword's data symbols, holds more or fewer data symbols than
// one codeword, so the packet must come back as the zero Block it
// always did — without building its layout, counting an RS attempt or
// a bad size field. The bounds must match the layout's data count at
// every declared size up to just past them.
func TestImpossibleSizeFieldRejectedEarly(t *testing.T) {
	const order, white = csk.CSK4, 0.2
	code := rs.MustNew(35, 17)
	d := order.SymbolsPerBytes(code.N())
	lo, hi := packet.SlotsForData(d, white), packet.SlotsForData(d+1, white)
	for total := 0; total <= hi+8; total++ {
		if holds := packet.DataSlots(total, white) == d; holds != (total >= lo && total < hi) {
			t.Fatalf("%d declared slots: layout holds one codeword %v, bounds [%d, %d) say otherwise", total, holds, lo, hi)
		}
	}

	// sizePacket declares total payload slots and carries observed
	// random data slots with one gap in their middle.
	rng := rand.New(rand.NewSource(29))
	sizePacket := func(rx *Receiver, total, observed int) packet.RxPacket {
		pkt := packet.RxPacket{Slots: sizeFieldSlots(rx, total)}
		nSize := len(pkt.Slots)
		for i := 0; i < observed; i++ {
			pkt.Slots = append(pkt.Slots, packet.RxSlot{Kind: packet.KindData, AB: rx.refs[rng.Intn(int(order))]})
		}
		pkt.Gaps = []int{nSize + observed/2}
		return pkt
	}
	rx, err := NewReceiver(RxConfig{
		Order: order, SymbolRate: 1500, WhiteFraction: white, Code: code, UseFactoryReferences: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, total := range []int{0, lo - 1, hi, 1<<packet.SizeBits - 1} {
		var blk Block
		rx.decodeData(sizePacket(rx, total, lo-20), &blk)
		if !reflect.DeepEqual(blk, Block{}) {
			t.Errorf("%d declared slots: block %+v, want the zero Block", total, blk)
		}
	}
	if attempts, bad := rx.c.rsAttempts.Value(), rx.c.sizeFieldBad.Value(); cap(rx.ds.layout) != 0 || attempts != 0 || bad != 0 {
		t.Errorf("impossible sizes built a %d-slot layout, made %d RS attempts and counted %d bad size fields; want none",
			cap(rx.ds.layout), attempts, bad)
	}
	// A possible size still reaches the layout and the decoder.
	var blk Block
	rx.decodeData(sizePacket(rx, lo, lo-20), &blk)
	if len(rx.ds.layout) != lo || rx.c.rsAttempts.Value() == 0 {
		t.Errorf("%d declared slots: layout %d slots after %d RS attempts; want %d slots and an attempt",
			lo, len(rx.ds.layout), rx.c.rsAttempts.Value(), lo)
	}
}

// frameTimings are FRAME timings from outside the process that once
// crashed the receiver: a zero, negative or NaN RowTime, a NaN,
// infinite or negative Exposure, smear widths (Exposure/RowTime) too
// large for an int, and finite RowTimes so long that a symbol spans
// less than one row, which once planned about Rows·RowTime·SymbolRate
// symbols (6·10^13 at 1e9 s) and exhausted memory. RowTime +Inf never
// crashed it. valid is what camera.Frame.TimingValid, and so the
// ingest wire, says of each; empty is whether Analyze must plan
// nothing.
var frameTimings = []struct {
	name              string
	exposure, rowTime float64
	valid, empty      bool
}{
	{"rowtime-zero", 1e-3, 0, false, true},
	{"rowtime-negative", 1e-3, -1e-5, false, true},
	{"rowtime-nan", 1e-3, math.NaN(), false, true},
	{"rowtime-inf", 1e-3, math.Inf(1), false, true},
	{"exposure-nan", math.NaN(), 1e-5, false, true},
	{"exposure-inf", math.Inf(1), 1e-5, false, true},
	{"exposure-negative", -1, 1e-5, false, true},
	{"smear-overflow", 1e300, 1e-300, true, false},
	{"rowtime-tiny", 1e-3, 1e-300, true, false},
	{"rowtime-1s", 1e-3, 1, true, true},
	{"rowtime-1000s", 1e-3, 1000, true, true},
	{"rowtime-1e9s", 1e-3, 1e9, true, true},
}

// TestAnalyzeSurvivesAnyFrameTiming feeds a 40×4 frame with each of
// frameTimings through ProcessFrame: none may panic, and a timing
// TimingValid rejects, or one whose symbol spans less than a row,
// yields an empty analysis that classifies no symbol.
func TestAnalyzeSurvivesAnyFrameTiming(t *testing.T) {
	prof := camera.Ideal()
	code, err := (coding.Params{
		SymbolRate: 2000, FrameRate: prof.FrameRate, LossRatio: prof.LossRatio(),
		Order: csk.CSK8, DataFraction: 0.8,
	}).LinkCodeErasure()
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(RxConfig{Order: csk.CSK8, SymbolRate: 2000, WhiteFraction: 0.2, Code: code})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for _, tc := range frameTimings {
		t.Run(tc.name, func(t *testing.T) {
			f := &camera.Frame{Rows: 40, Cols: 4, Exposure: tc.exposure, RowTime: tc.rowTime}
			f.Pix = make([]colorspace.RGB, f.Rows*f.Cols)
			for i := range f.Pix {
				// Bands of 5 rows, so the segmentation has cuts to find.
				if (i/f.Cols/5)%2 == 0 {
					f.Pix[i] = colorspace.RGB{R: 0.8, G: 0.2 + 0.01*rng.Float64(), B: 0.1}
				} else {
					f.Pix[i] = colorspace.RGB{R: 0.1, G: 0.3, B: 0.9 + 0.01*rng.Float64()}
				}
			}
			if got := f.TimingValid(); got != tc.valid {
				t.Fatalf("TimingValid = %v, want %v", got, tc.valid)
			}
			a := rx.Analyze(f)
			if tc.empty && (len(a.bands) != 0 || a.hasOffLevel) {
				// Fatal: emitting the plan may not return.
				t.Fatalf("planned %d bands, want none", len(a.bands))
			}
			before := rx.Stats().SymbolsIn
			rx.Recycle(rx.ProcessAnalysis(a))
			if got := rx.Stats().SymbolsIn - before; tc.empty && got != 0 {
				t.Errorf("classified %d symbols, want none", got)
			}
		})
	}
}
