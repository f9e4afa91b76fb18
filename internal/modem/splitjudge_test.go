package modem

import (
	"bytes"
	"slices"
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/cie"
	"colorbars/internal/coding"
	"colorbars/internal/csk"
	"colorbars/internal/fault"
	"colorbars/internal/packet"
)

// chaosCapture is a seeded capture of a repeating broadcast through
// the fault classes perfbench's chaos-4csk workload schedules: one
// occlusion, AWB drift, frame-drop and noise burst in the capture's
// middle, at the middle of fault.RandomSchedule's severity ranges.
type chaosCapture struct {
	point  OperatingPoint
	frames []*camera.Frame
}

func newChaosCapture(t testing.TB, order csk.Order, rate float64, prof camera.Profile, seconds float64, seed int64) chaosCapture {
	t.Helper()
	code, err := coding.Params{
		SymbolRate: rate, FrameRate: prof.FrameRate, LossRatio: prof.LossRatio(),
		Order: order, DataFraction: 0.8,
	}.LinkCodeErasure()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := NewTransmitter(TxConfig{
		Order: order, SymbolRate: rate, WhiteFraction: 0.2, Power: 1,
		Triangle: cie.SRGBTriangle, CalibrationEvery: 6, Code: code,
		Seed: fault.DeriveSeed(seed, "tx"),
	})
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 12*code.K())
	for i := range msg {
		msg[i] = byte(i*31 + 7)
	}
	w, err := tx.BuildWaveformRepeating(msg, seconds+0.5)
	if err != nil {
		t.Fatal(err)
	}
	sched := fault.RandomSchedule(fault.DeriveSeed(seed, "schedule"), seconds,
		fault.Occlusion, fault.AWBDrift, fault.FrameDrop, fault.NoiseBurst)
	magnitude := map[fault.Class]float64{
		fault.Occlusion: 0.975, fault.AWBDrift: 0.175, fault.FrameDrop: 0.6, fault.NoiseBurst: 0.275,
	}
	for i := range sched.Events {
		e := &sched.Events[i]
		e.Duration = min(0.125*seconds, 0.7*seconds-e.Start)
		e.Magnitude = magnitude[e.Class]
	}
	inj := fault.New(fault.Config{Seed: fault.DeriveSeed(seed, "fault"), Schedule: sched})
	cam := camera.New(prof, fault.DeriveSeed(seed, "camera"))
	frames := inj.FilterFrames(cam.CaptureVideo(inj.WrapSource(w), 0, int(seconds*prof.FrameRate)))
	return chaosCapture{
		point:  OperatingPoint{Order: order, SymbolRate: rate, WhiteFraction: 0.2, Code: code},
		frames: frames,
	}
}

// judgeTally counts what the split-judge differential compared.
type judgeTally struct {
	packets, splits, passed int
}

// checkSplitJudge runs the differential on every multi-gap data packet
// the receiver deframed from its last frame, against the receiver's
// state after that frame. It enumerates the packet's splits with
// forEachSplit (the specification of searchSplits' order and budget)
// and requires, for each, that splitPasses agree with the full
// assembleSymbols + rsDecode verdict. Then decodeData must return the
// block of the first split that decodes, count one RS attempt per
// split up to it, and, when none decodes, keep the first split's
// symbols.
func checkSplitJudge(t *testing.T, rx *Receiver, tally *judgeTally) {
	t.Helper()
	if !rx.haveRefs {
		return
	}
	n := rx.cfg.Code.N()
	for _, pkt := range rx.pktBuf {
		if pkt.Kind != packet.PacketData {
			continue
		}
		layout, observed, gaps, missing, ok := rx.packetGeometry(pkt)
		if !ok || len(gaps) < 2 {
			continue
		}
		tally.packets++
		rx.ds.sj.reset(layout, observed, gaps, missing)
		var (
			tries, passAt         int
			firstRaw, passRaw     []int
			passData              []byte
			passErasures, passObs int
		)
		forEachSplit(missing, len(gaps), maxSplitTries, func(split []int) bool {
			tries++
			raw, eras, obs := rx.assembleSymbols(layout, observed, gaps, split, n)
			if tries == 1 {
				firstRaw = slices.Clone(raw)
			}
			nEras := len(eras)
			data, full := rx.rsDecode(raw, eras, n, true)
			judged := rx.splitPasses(split)
			if judged != full {
				t.Fatalf("%v gaps %v missing %d split %v: syndrome verdict %v, full decode %v",
					rx.cfg.Order, gaps, missing, split, judged, full)
			}
			tally.splits++
			if full && passData == nil {
				passAt, passData, passRaw, passErasures, passObs = tries, data, slices.Clone(raw), nEras, obs
			}
			rx.putRawBuf(raw)
			return false
		})
		before := rx.c.rsAttempts.Value()
		var blk Block
		rx.decodeData(pkt, &blk)
		attempts := int(rx.c.rsAttempts.Value() - before)
		if passData == nil {
			if blk.Recovered || !slices.Equal(blk.RawSymbols, firstRaw) || attempts != tries {
				t.Fatalf("%v gaps %v: no split decodes, but decodeData recovered=%v after %d attempts (want %d) with symbols of another split",
					rx.cfg.Order, gaps, blk.Recovered, attempts, tries)
			}
			continue
		}
		tally.passed++
		if !blk.Recovered || !bytes.Equal(blk.Data, passData) || !slices.Equal(blk.RawSymbols, passRaw) ||
			blk.Erasures != passErasures || blk.SymbolsObserved != passObs || attempts != passAt {
			t.Fatalf("%v gaps %v: decodeData's block (recovered=%v, %d attempts) is not split %d's",
				rx.cfg.Order, gaps, blk.Recovered, attempts, passAt)
		}
	}
}

// TestSplitJudgeMatchesFullDecode is the split judge's differential
// test: on chaos captures whose packets span at least two gaps, at 4-,
// 8-, 16- and 32-CSK (8 and 32 pack symbols across byte boundaries),
// with erasure decoding on and off, every split's syndrome verdict
// must equal the full decode's, and decodeData must return the block
// of the first split that decodes. 32-CSK runs on the ideal camera:
// on the Nexus 5 its 32-colour calibration packets never survive the
// gaps at these rates, so nothing decodes.
func TestSplitJudgeMatchesFullDecode(t *testing.T) {
	for _, tc := range []struct {
		name      string
		order     csk.Order
		rate      float64
		prof      camera.Profile
		noErasure bool
	}{
		{"csk4@1.5kHz", csk.CSK4, 1500, camera.Nexus5(), false},
		{"csk8@1.5kHz", csk.CSK8, 1500, camera.Nexus5(), false},
		{"csk16@1.5kHz", csk.CSK16, 1500, camera.Nexus5(), false},
		{"csk32@1.5kHz/ideal", csk.CSK32, 1500, camera.Ideal(), false},
		{"csk4@1.5kHz/no-erasures", csk.CSK4, 1500, camera.Nexus5(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newChaosCapture(t, tc.order, tc.rate, tc.prof, 3, 11)
			rx, err := NewReceiver(RxConfig{
				Order: tc.order, SymbolRate: tc.rate, WhiteFraction: 0.2,
				Code: c.point.Code, NoErasureDecoding: tc.noErasure,
			})
			if err != nil {
				t.Fatal(err)
			}
			var tally judgeTally
			for _, f := range c.frames {
				rx.Recycle(rx.ProcessFrame(f))
				checkSplitJudge(t, rx, &tally)
			}
			t.Logf("%d multi-gap packets, %d splits compared, %d packets decoded", tally.packets, tally.splits, tally.passed)
			if tally.packets == 0 || (tally.passed == 0 && !tc.noErasure) {
				t.Fatalf("%d multi-gap packets, %d decoded: the capture does not exercise the split search", tally.packets, tally.passed)
			}
		})
	}
}

// TestSplitJudgeFollowsOperatingPoint switches the receiver between
// two codes mid-capture (RS sized for 4-CSK at 1.5 kHz, then for
// 8-CSK at 1.5 kHz, then back): the judge's per-code mask syndromes
// and scratch must follow SetOperatingPoint, so the differential holds
// on every stretch.
func TestSplitJudgeFollowsOperatingPoint(t *testing.T) {
	a := newChaosCapture(t, csk.CSK4, 1500, camera.Nexus5(), 3, 12)
	b := newChaosCapture(t, csk.CSK8, 1500, camera.Nexus5(), 3, 13)
	if a.point.Code.N() == b.point.Code.N() {
		t.Fatalf("both points use %d-byte codewords; the switch would not change the code", a.point.Code.N())
	}
	rx, err := NewReceiver(RxConfig{Order: csk.CSK4, SymbolRate: 1500, WhiteFraction: 0.2, Code: a.point.Code})
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range []struct {
		c      chaosCapture
		frames []*camera.Frame
	}{
		{a, a.frames[:len(a.frames)/2]},
		{b, b.frames},
		{a, a.frames[len(a.frames)/2:]},
	} {
		if i > 0 {
			flushed, err := rx.SetOperatingPoint(seg.c.point)
			if err != nil {
				t.Fatal(err)
			}
			rx.Recycle(flushed)
		}
		var tally judgeTally
		for _, f := range seg.frames {
			rx.Recycle(rx.ProcessFrame(f))
			checkSplitJudge(t, rx, &tally)
		}
		t.Logf("stretch %d (%v): %d multi-gap packets, %d splits compared, %d packets decoded",
			i, seg.c.point.Order, tally.packets, tally.splits, tally.passed)
		if tally.passed == 0 {
			t.Fatalf("stretch %d: no multi-gap packet decoded, so the comparison has no passing split", i)
		}
	}
}

// splitSearchPacket feeds a fresh receiver the capture's frames until
// one deframes a multi-gap data packet whose split search runs deep:
// resolved after at least 200 splits, or, with recovered false,
// exhausting maxSplitTries. It returns the receiver, left in its state
// after that frame, the packet and the splits the search tries.
func splitSearchPacket(b *testing.B, c chaosCapture, recovered bool) (*Receiver, packet.RxPacket, int) {
	b.Helper()
	rx, err := NewReceiver(RxConfig{
		Order: c.point.Order, SymbolRate: c.point.SymbolRate, WhiteFraction: c.point.WhiteFraction, Code: c.point.Code,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range c.frames {
		rx.Recycle(rx.ProcessFrame(f))
		if !rx.haveRefs {
			continue
		}
		for _, pkt := range rx.pktBuf {
			if pkt.Kind != packet.PacketData || len(pkt.Gaps) < 2 {
				continue
			}
			before := rx.c.rsAttempts.Value()
			var blk Block
			rx.decodeData(pkt, &blk)
			tries := int(rx.c.rsAttempts.Value() - before)
			if blk.Recovered == recovered && (tries >= 200 && recovered || tries == maxSplitTries) {
				return rx, pkt, tries
			}
		}
	}
	b.Fatalf("no multi-gap packet with recovered=%v and a deep split search", recovered)
	return nil, packet.RxPacket{}, 0
}

// BenchmarkSplitSearch times decodeData on two multi-gap packets of a
// seeded 4-CSK/1.5 kHz Nexus 5 capture under perfbench's chaos
// schedule (seed 5): "resolved" decodes at its 691st split, and
// "exhausted" tries all maxSplitTries splits and fails. These are the
// packets that set chaos-4csk's frame p99 (DESIGN.md §17).
func BenchmarkSplitSearch(b *testing.B) {
	c := newChaosCapture(b, csk.CSK4, 1500, camera.Nexus5(), 3, 5)
	for _, bc := range []struct {
		name      string
		recovered bool
	}{{"resolved", true}, {"exhausted", false}} {
		b.Run(bc.name, func(b *testing.B) {
			rx, pkt, tries := splitSearchPacket(b, c, bc.recovered)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var blk Block
				rx.decodeData(pkt, &blk)
				rx.putRawBuf(blk.RawSymbols)
				rx.putDataBuf(blk.Data)
			}
			b.ReportMetric(float64(tries), "splits/op")
		})
	}
}
