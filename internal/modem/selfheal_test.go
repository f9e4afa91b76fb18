package modem

import (
	"fmt"
	"math"
	"testing"

	"colorbars/internal/cie"
	"colorbars/internal/coding"
	"colorbars/internal/colorspace"
	"colorbars/internal/csk"
	"colorbars/internal/packet"
	"colorbars/internal/rs"
)

// healLink builds a tx/rx pair wired directly at the symbol level (no
// camera), with the receiver's self-heal thresholds under test
// control. Symbols are delivered through pushFrame, which feeds them
// to ProcessAnalysis, the sequential tail every frame goes through.
func healLink(t *testing.T, heal SelfHealConfig) (*Transmitter, *Receiver) {
	t.Helper()
	params := coding.Params{
		SymbolRate:   2000,
		FrameRate:    30,
		LossRatio:    0.23,
		Order:        csk.CSK8,
		DataFraction: 0.8,
	}
	code, err := params.LinkCodeErasure()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := NewTransmitter(TxConfig{
		Order:            csk.CSK8,
		SymbolRate:       2000,
		WhiteFraction:    0.2,
		Power:            1,
		Triangle:         cie.SRGBTriangle,
		CalibrationEvery: 1,
		Code:             code,
	})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(RxConfig{
		Order:         csk.CSK8,
		SymbolRate:    2000,
		WhiteFraction: 0.2,
		Code:          code,
		SelfHeal:      heal,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tx, rx
}

// pushFrame feeds one frame's worth of symbols through ProcessAnalysis
// as a planned frame of one-symbol bands whose colors classify back to
// exactly those symbols: OFF is black, white is lit and achromatic,
// and data is lit at its own a,b. The white radius shrinks to a hair
// for the call, so a low-chroma data symbol (garbageFrame's) stays
// data; a symbol that would still not round-trip panics.
func pushFrame(r *Receiver, syms []packet.RxSymbol) []Block {
	margin := r.cls.whiteMargin
	r.cls.whiteMargin = 1e-6
	defer func() { r.cls.whiteMargin = margin }()
	a := getAnalysis()
	for i, s := range syms {
		lab := colorspace.Lab{L: 100}
		switch s.Kind {
		case packet.KindOff:
			lab.L = 0
		case packet.KindData:
			lab.A, lab.B = s.AB.A, s.AB.B
		}
		if got := r.cls.classify(lab); got != s {
			panic(fmt.Sprintf("pushFrame: symbol %d %+v classifies as %+v", i, s, got))
		}
		a.bands = append(a.bands, plannedBand{lab: lab, count: 1})
	}
	return r.ProcessAnalysis(a)
}

// rxFromTx converts transmitted symbols into ideal received symbols:
// data colors land exactly on the factory references, so a factory-lit
// receiver decodes them perfectly.
func rxFromTx(r *Receiver, tx []packet.TxSymbol) []packet.RxSymbol {
	refs := r.cons.ReferenceABs()
	out := make([]packet.RxSymbol, 0, len(tx))
	for _, s := range tx {
		switch s.Kind {
		case packet.KindData:
			out = append(out, packet.RxSymbol{Kind: packet.KindData, AB: refs[s.Index]})
		default:
			out = append(out, packet.RxSymbol{Kind: s.Kind})
		}
	}
	return out
}

// calFrame returns one complete, ideally received calibration packet.
func calFrame(t *testing.T, r *Receiver) []packet.RxSymbol {
	t.Helper()
	cal, err := r.pktCfg.BuildCalibration(r.cons.CalibrationOrder())
	if err != nil {
		t.Fatal(err)
	}
	// Terminate the packet body with the start of a next delimiter so
	// the deframer can parse it without waiting for more input.
	cal = append(cal, packet.Off())
	return rxFromTx(r, cal)
}

// garbageFrame is a frame of headerless data symbols: the deframer
// can only discard it (no leading OFF run), which is the signature of
// segmentation collapse.
func garbageFrame(n int) []packet.RxSymbol {
	syms := make([]packet.RxSymbol, n)
	for i := range syms {
		syms[i] = packet.RxSymbol{Kind: packet.KindData, AB: colorspace.AB{A: 5, B: 5}}
	}
	return syms
}

func TestResyncOnSegmentationCollapse(t *testing.T) {
	_, rx := healLink(t, SelfHealConfig{CollapseFrames: 3, DistanceFrames: 1000})
	pushFrame(rx, calFrame(t, rx))
	if !rx.Calibrated() {
		t.Fatal("calibration frame not applied")
	}

	for i := 0; i < 2; i++ {
		pushFrame(rx, garbageFrame(40))
	}
	if got := rx.Stats().Resyncs; got != 0 {
		t.Fatalf("resync fired after %d collapse frames, threshold is 3 (resyncs=%d)", 2, got)
	}
	pushFrame(rx, garbageFrame(40))
	st := rx.Stats()
	if st.Resyncs != 1 {
		t.Fatalf("resyncs = %d after 3 collapse frames, want 1", st.Resyncs)
	}
	if st.StaleCalibrations != 1 {
		t.Fatalf("stale calibrations = %d after resync, want 1 (references are suspect)", st.StaleCalibrations)
	}
	if len(rx.deframer.Flush()) != 0 {
		t.Error("deframer still holds state after resync")
	}

	// Recovery: the next calibration packet re-acquires, and data
	// decodes again.
	pushFrame(rx, calFrame(t, rx))
	if rx.Stats().StaleCalibrations != 1 {
		t.Error("stale episode did not close on recalibration")
	}
	tx, _ := healLink(t, SelfHealConfig{})
	msg := make([]byte, tx.Config().Code.K())
	stream, err := tx.EncodeMessage(msg)
	if err != nil {
		t.Fatal(err)
	}
	blocks := pushFrame(rx, rxFromTx(rx, stream))
	blocks = append(blocks, rx.Flush()...)
	ok := 0
	for _, b := range blocks {
		if b.Recovered {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no block recovered after resync + recalibration")
	}
}

func TestResyncOnClassificationDistanceBlowup(t *testing.T) {
	_, rx := healLink(t, SelfHealConfig{CollapseFrames: 1000, DistanceFrames: 3})
	pushFrame(rx, calFrame(t, rx))

	// Frames whose data symbols sit nowhere near any reference — the
	// signature of the constellation drifting under the references.
	far := make([]packet.RxSymbol, 12)
	for i := range far {
		far[i] = packet.RxSymbol{Kind: packet.KindData, AB: colorspace.AB{A: 115, B: -115}}
	}
	for i := 0; i < 3; i++ {
		pushFrame(rx, far)
	}
	st := rx.Stats()
	if st.Resyncs != 1 || st.StaleCalibrations != 1 {
		t.Fatalf("after distance blowup: resyncs=%d stale=%d, want 1/1", st.Resyncs, st.StaleCalibrations)
	}
	// While stale, further blown-up frames must not re-fire the
	// distance trigger — the receiver is already waiting for a
	// calibration packet.
	for i := 0; i < 6; i++ {
		pushFrame(rx, far)
	}
	if got := rx.Stats().Resyncs; got != 1 {
		t.Fatalf("distance trigger re-fired while stale: resyncs=%d", got)
	}
}

func TestStaleCalibrationSnapsToNextPacket(t *testing.T) {
	_, rx := healLink(t, SelfHealConfig{StaleAfterFrames: 4, CollapseFrames: 1000})
	pushFrame(rx, calFrame(t, rx))
	before := rx.References()

	// Idle dark frames age the calibration past the threshold.
	dark := make([]packet.RxSymbol, 30)
	for i := range dark {
		dark[i] = packet.RxSymbol{Kind: packet.KindOff}
	}
	for i := 0; i < 6; i++ {
		pushFrame(rx, dark)
	}
	st := rx.Stats()
	if st.StaleCalibrations != 1 {
		t.Fatalf("stale calibrations = %d after aging, want 1", st.StaleCalibrations)
	}

	// Degraded mode: a data packet (no calibration traffic yet) still
	// decodes against the last-known-good references, counted as a
	// degraded block.
	tx, _ := healLink(t, SelfHealConfig{})
	msg := make([]byte, tx.Config().Code.K())
	cws, err := tx.blocker.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	dataPkt, err := rx.pktCfg.BuildData(cws[0])
	if err != nil {
		t.Fatal(err)
	}
	dataPkt = append(dataPkt, packet.Off())
	blocks := pushFrame(rx, rxFromTx(rx, dataPkt))
	ok := 0
	for _, b := range blocks {
		if b.Recovered {
			ok++
		}
	}
	st = rx.Stats()
	if ok == 0 {
		t.Fatal("degraded mode failed to decode against last-known-good references")
	}
	if st.DegradedBlocks == 0 {
		t.Fatal("degraded blocks not counted while stale")
	}

	// The next calibration packet closes the stale episode with the
	// references snapped to the fresh observation — identical to the
	// factory-perfect colors, not an EMA blend.
	pushFrame(rx, calFrame(t, rx))
	if rx.heal.stale {
		t.Fatal("still stale after a valid calibration packet")
	}
	after := rx.References()
	if len(after) != len(before) {
		t.Fatalf("reference count changed: %d → %d", len(before), len(after))
	}
	factory := rx.cons.ReferenceABs()
	for i := range after {
		if after[i] != factory[i] {
			t.Fatalf("ref %d = %v after snap, want exact factory observation %v", i, after[i], factory[i])
		}
	}
}

func TestSelfHealDisabled(t *testing.T) {
	_, rx := healLink(t, SelfHealConfig{Disable: true})
	pushFrame(rx, calFrame(t, rx))
	for i := 0; i < 40; i++ {
		pushFrame(rx, garbageFrame(40))
	}
	st := rx.Stats()
	if st.Resyncs != 0 || st.StaleCalibrations != 0 || st.DegradedBlocks != 0 {
		t.Fatalf("self-heal acted while disabled: %+v", st)
	}
}

// TestSelfHealCountersInSnapshot pins the acceptance criterion that
// the recovery counters are visible through the telemetry snapshot.
func TestSelfHealCountersInSnapshot(t *testing.T) {
	_, rx := healLink(t, SelfHealConfig{CollapseFrames: 2})
	pushFrame(rx, calFrame(t, rx))
	for i := 0; i < 4; i++ {
		pushFrame(rx, garbageFrame(40))
	}
	snap := rx.Snapshot()
	if snap.Counters["rx.resyncs"] == 0 {
		t.Error("rx.resyncs missing from telemetry snapshot")
	}
	if snap.Counters["rx.stale_calibrations"] == 0 {
		t.Error("rx.stale_calibrations missing from telemetry snapshot")
	}
}

// TestNewReceiverRejectsBadSelfHeal: observeFrameHealth compares each
// frame against the self-heal thresholds as given, so a CollapseFrames
// of −1 would resync on every frame, a NaN or +Inf DistanceTheta would
// never count a blown-up frame, and a −Inf or negative one would count
// every frame. NewReceiver must refuse each such value, and zero must
// still select every default.
func TestNewReceiverRejectsBadSelfHeal(t *testing.T) {
	cfg := RxConfig{Order: csk.CSK8, SymbolRate: 2000, WhiteFraction: 0.2, Code: rs.MustNew(40, 24)}
	for _, heal := range []SelfHealConfig{
		{DistanceTheta: math.NaN()},
		{DistanceTheta: math.Inf(1)},
		{DistanceTheta: math.Inf(-1)},
		{DistanceTheta: -1},
		{CollapseFrames: -1},
		{DistanceFrames: -1},
		{StaleAfterFrames: -1},
	} {
		bad := cfg
		bad.SelfHeal = heal
		if _, err := NewReceiver(bad); err == nil {
			t.Errorf("NewReceiver accepted self-heal %+v", heal)
		}
	}
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := SelfHealConfig{CollapseFrames: 45, DistanceTheta: 22, DistanceFrames: 6, StaleAfterFrames: 150}
	if rx.heal.cfg != want {
		t.Errorf("zero self-heal thresholds resolved to %+v, want the defaults %+v", rx.heal.cfg, want)
	}
}
