package modem

import (
	"testing"

	"colorbars/internal/colorspace"
	"colorbars/internal/packet"
)

// TestCorruptedThenValidCalibration feeds a calibration packet whose
// body was corrupted into a degenerate constellation (every color
// identical — the signature of a noise burst flattening the body),
// followed by a clean one. The corrupted packet must be rejected
// without poisoning the references; the clean one must calibrate.
func TestCorruptedThenValidCalibration(t *testing.T) {
	_, rx := healLink(t, SelfHealConfig{})

	corrupted := calFrame(t, rx)
	for i := range corrupted {
		if corrupted[i].Kind == packet.KindData {
			corrupted[i].AB = colorspace.AB{A: 12, B: -3}
		}
	}
	pushFrame(rx, corrupted)
	st := rx.Stats()
	if rx.Calibrated() {
		t.Fatal("receiver calibrated from a degenerate body")
	}
	if st.RejectedCalibrations != 1 {
		t.Fatalf("rejected calibrations = %d, want 1", st.RejectedCalibrations)
	}

	pushFrame(rx, calFrame(t, rx))
	if !rx.Calibrated() {
		t.Fatal("valid calibration after a corrupted one was not applied")
	}
	factory := rx.cons.ReferenceABs()
	for i, ref := range rx.References() {
		if ref != factory[i] {
			t.Fatalf("ref %d = %v, corrupted packet leaked into references (want %v)", i, ref, factory[i])
		}
	}
}

// TestCalibrationSplitAcrossGap splits a calibration packet's body
// across an inter-frame gap. The paper's receiver discards such
// packets (the body is no longer a complete constellation) and waits
// for the next periodic one; the discard must not corrupt parser
// state for the following packet.
func TestCalibrationSplitAcrossGap(t *testing.T) {
	_, rx := healLink(t, SelfHealConfig{})

	whole := calFrame(t, rx)
	mid := len(whole) - 1 - int(rx.cfg.Order)/2 // split inside the body
	pushFrame(rx, whole[:mid])
	pushFrame(rx, whole[mid:]) // ProcessAnalysis inserts the gap marker
	st := rx.Stats()
	if rx.Calibrated() {
		t.Fatal("receiver calibrated from a gap-split calibration packet")
	}
	if st.DiscardedPackets == 0 {
		t.Fatal("gap-split calibration packet was not discarded")
	}

	pushFrame(rx, calFrame(t, rx))
	if !rx.Calibrated() {
		t.Fatal("complete calibration packet after the split one was not applied")
	}
}

// TestValidCalibrationRejectsDegenerate unit-tests the plausibility
// check directly: wrong-length bodies, coincident points, and
// near-coincident points (closer than the distinctness floor) must
// all be rejected; a genuinely distinct constellation passes.
func TestValidCalibrationRejectsDegenerate(t *testing.T) {
	_, rx := healLink(t, SelfHealConfig{})
	order := int(rx.cfg.Order)

	distinct := make([]colorspace.AB, order)
	for i := range distinct {
		distinct[i] = colorspace.AB{A: float64(20 * i), B: float64(-15 * i)}
	}
	if !rx.validCalibration(distinct) {
		t.Error("distinct constellation rejected")
	}

	if rx.validCalibration(distinct[:order-1]) {
		t.Error("short body accepted")
	}

	coincident := make([]colorspace.AB, order)
	for i := range coincident {
		coincident[i] = colorspace.AB{A: 40, B: 40}
	}
	if rx.validCalibration(coincident) {
		t.Error("coincident constellation accepted")
	}

	near := append([]colorspace.AB(nil), distinct...)
	near[1] = colorspace.AB{A: near[0].A + 1, B: near[0].B} // under the Dist≥2 floor
	if rx.validCalibration(near) {
		t.Error("near-coincident constellation accepted")
	}
}
