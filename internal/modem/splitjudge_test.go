package modem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/cie"
	"colorbars/internal/coding"
	"colorbars/internal/csk"
	"colorbars/internal/fault"
	"colorbars/internal/packet"
	"colorbars/internal/rs"
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

// fullHypothesis is what decodeFull makes of one loss hypothesis.
type fullHypothesis struct {
	raw      []int  // constellation indices, -1 where lost
	erasures []int  // byte positions the lost symbols touch, ascending
	observed int    // data symbols observed
	received []byte // the descrambled codeword before RS
	data     []byte // the decoded block, nil unless RS succeeded
}

// decodeFull decodes one loss hypothesis the way the receiver once
// decoded every hypothesis, kept as the oracle for its one hypothesis
// path: walk the slot layout slot by slot, taking each slot from the
// next gap's loss or the next observed slot, classify every observed
// data slot and mark the bytes each lost data symbol touches; then
// zero-fill the lost symbols, unpack, descramble and RS-decode within
// the erasure budget (less 4 bytes of slack for a guess). It allocates
// freely and leaves the receiver's scratch alone.
func decodeFull(rx *Receiver, layout []bool, observed []packet.RxSlot, gaps, split []int, needSlack bool) fullHypothesis {
	var h fullHypothesis
	n := rx.cfg.Code.N()
	c := rx.cfg.Order.BitsPerSymbol()
	erased := make([]bool, n)
	oi, gi, pendingLoss := 0, 0, 0
	absorb := func() {
		for gi < len(gaps) && gaps[gi] == oi {
			pendingLoss += split[gi]
			gi++
		}
	}
	absorb()
	for _, white := range layout {
		fromGap := pendingLoss > 0
		if fromGap {
			pendingLoss--
		}
		switch {
		case white:
			if !fromGap && oi < len(observed) {
				oi++
			}
		case fromGap || oi >= len(observed):
			i := len(h.raw)
			for by := i * c / 8; by <= ((i+1)*c-1)/8 && by < n; by++ {
				erased[by] = true
			}
			h.raw = append(h.raw, -1)
		default:
			h.raw = append(h.raw, csk.NearestAB(rx.eqAB(observed[oi].AB), rx.refs))
			oi++
			h.observed++
		}
		if pendingLoss == 0 {
			absorb()
		}
	}
	for by, e := range erased {
		if e {
			h.erasures = append(h.erasures, by)
		}
	}
	filled := make([]int, len(h.raw))
	for i, s := range h.raw {
		filled[i] = max(s, 0)
	}
	cw, err := rx.cfg.Order.Unpack(filled, n)
	if err != nil {
		panic(err)
	}
	packet.ScrambleInPlace(cw)
	h.received = slices.Clone(cw)
	eras := h.erasures
	if rx.cfg.NoErasureDecoding {
		eras = nil
	}
	limit := rx.cfg.Code.ParityBytes()
	if needSlack {
		limit -= 4
	}
	if len(eras) <= limit {
		if data, err := rx.cfg.Code.Decode(cw, eras); err == nil {
			h.data = data
		}
	}
	return h
}

// corrected counts the bytes outside the erasures where the received
// codeword differs from the re-encoded block: the RS correction load
// linkstats records.
func (h fullHypothesis) corrected(code *rs.Code) int {
	cw, err := code.Encode(h.data)
	if err != nil {
		panic(err)
	}
	diffs := 0
	for i := range cw {
		if !slices.Contains(h.erasures, i) && cw[i] != h.received[i] {
			diffs++
		}
	}
	return diffs
}

// hypothesis is one loss hypothesis of a packet: a gap placement and a
// split of the missing slots among the gaps.
type hypothesis struct {
	gaps, split []int
}

// packetHypotheses lists the hypotheses decodeData runs on a packet, in
// its order: with two or more gaps, forEachSplit's splits; with one
// gap, the gap as observed and then moved by ±1…±3 slots; with none,
// the one empty split.
func packetHypotheses(gaps []int, observed, missing int) []hypothesis {
	var hs []hypothesis
	if len(gaps) > 1 {
		forEachSplit(missing, len(gaps), maxSplitTries, func(split []int) bool {
			hs = append(hs, hypothesis{gaps, split})
			return false
		})
		return hs
	}
	if len(gaps) == 0 {
		return []hypothesis{{nil, nil}}
	}
	hs = append(hs, hypothesis{gaps, []int{missing}})
	for _, delta := range []int{-1, 1, -2, 2, -3, 3} {
		if g := gaps[0] + delta; missing > 0 && g >= 0 && g <= observed {
			hs = append(hs, hypothesis{[]int{g}, []int{missing}})
		}
	}
	return hs
}

// judgeTally counts what the split-judge differential compared.
type judgeTally struct {
	multiGap, splits, multiDecoded int // packets with two or more gaps, their splits, those that decoded
	moved, guesses, movedDecoded   int // single-gap packets whose certain attempt failed, their moved-gap guesses, those packets that decoded
}

// checkSplitJudge runs the differential on every data packet the
// receiver deframed from its last frame, against the receiver's state
// after that frame. For each of the packet's hypotheses in decodeData's
// order it requires the receiver's erasure list (lossErasures) to equal
// the oracle's and its judged syndromes (guessSyndromes, after moveGap
// for a moved single gap) to equal those of the oracle's codeword, so
// the judge's verdict is Decode's on that codeword. Then decodeData
// must return the block of the first hypothesis that decodes, with its
// correction count, after one RS attempt per hypothesis up to it; when
// none decodes, it must keep the first hypothesis's symbols after one
// attempt per hypothesis.
func checkSplitJudge(t *testing.T, rx *Receiver, tally *judgeTally) {
	t.Helper()
	if !rx.haveRefs {
		return
	}
	for _, pkt := range rx.pktBuf {
		if pkt.Kind == packet.PacketData {
			checkPacket(t, rx, pkt, tally)
		}
	}
}

// checkPacket runs checkSplitJudge's differential on one data packet.
func checkPacket(t *testing.T, rx *Receiver, pkt packet.RxPacket, tally *judgeTally) {
	t.Helper()
	code := rx.cfg.Code
	if !rx.packetGeometry(pkt) {
		return
	}
	ds := &rx.ds
	layout, observed, gaps := slices.Clone(ds.layout), ds.observed, slices.Clone(ds.gaps)
	hs := packetHypotheses(gaps, len(observed), ds.missing)
	var first, pass fullHypothesis
	passAt := 0
	for i, h := range hs {
		want := decodeFull(rx, layout, observed, h.gaps, h.split, i > 0 || len(gaps) > 1)
		if i == 0 {
			first = want
		}
		if want.data != nil && passAt == 0 {
			pass, passAt = want, i+1
		}
		if len(gaps) == 0 {
			continue
		}
		if len(gaps) == 1 {
			rx.moveGap(h.gaps[0])
		}
		eras := rx.lossErasures(h.split)
		synd := make([]byte, code.ParityBytes())
		code.AddSyndromes(synd, want.received, 0)
		if got := rx.guessSyndromes(h.split); !slices.Equal(eras, want.erasures) || !bytes.Equal(got, synd) {
			t.Fatalf("%v gaps %v missing %d split %v: erasures %v, syndromes %x; full decode %v, %x",
				rx.cfg.Order, h.gaps, ds.missing, h.split, eras, got, want.erasures, synd)
		}
	}
	switch {
	case len(gaps) > 1:
		tally.multiGap++
		tally.splits += len(hs)
		if passAt > 0 {
			tally.multiDecoded++
		}
	case len(hs) > 1 && first.data == nil:
		tally.moved++
		tally.guesses += len(hs) - 1
		if passAt > 0 {
			tally.movedDecoded++
		}
	}
	before := rx.c.rsAttempts.Value()
	var blk Block
	rx.decodeData(pkt, &blk)
	attempts := int(rx.c.rsAttempts.Value() - before)
	if passAt == 0 {
		if blk.Recovered || !slices.Equal(blk.RawSymbols, first.raw) || blk.Erasures != len(first.erasures) ||
			blk.SymbolsObserved != first.observed || attempts != len(hs) {
			t.Fatalf("%v gaps %v: no hypothesis decodes, but decodeData recovered=%v after %d attempts (want %d) with symbols of another hypothesis",
				rx.cfg.Order, gaps, blk.Recovered, attempts, len(hs))
		}
		return
	}
	if !blk.Recovered || !bytes.Equal(blk.Data, pass.data) || !slices.Equal(blk.RawSymbols, pass.raw) ||
		blk.Erasures != len(pass.erasures) || blk.SymbolsObserved != pass.observed || attempts != passAt ||
		rx.correctionCount(&blk) != pass.corrected(code) {
		t.Fatalf("%v gaps %v: decodeData's block (recovered=%v, %d attempts) is not hypothesis %d's",
			rx.cfg.Order, gaps, blk.Recovered, attempts, passAt)
	}
}

// TestSplitJudgeMatchesFullDecode is the differential test of the
// receiver's one hypothesis path against the full decode: chaos
// captures whose packets span at least two gaps, at 4-, 8-, 16- and
// 32-CSK (8 and 32 pack symbols across byte boundaries) at 1.5 kHz,
// with erasure decoding on and off, and 8- and 16-CSK at 4 kHz, where
// a packet spans one gap and its moved-gap guesses are judged. 32-CSK
// runs on the ideal camera: on the Nexus 5 its 32-colour calibration
// packets never survive the gaps at these rates, so nothing decodes.
// No moved-gap guess decodes in the 4 kHz captures, so those cases
// count the guesses compared instead.
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
		{"csk8@4kHz", csk.CSK8, 4000, camera.Nexus5(), false},
		{"csk16@4kHz", csk.CSK16, 4000, camera.Nexus5(), false},
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
			t.Logf("%+v", tally)
			if tc.rate < 2000 && (tally.multiGap == 0 || tally.multiDecoded == 0 && !tc.noErasure) {
				t.Fatalf("%d multi-gap packets, %d decoded: the capture does not exercise the split search", tally.multiGap, tally.multiDecoded)
			}
			if tc.rate >= 2000 && tally.guesses == 0 {
				t.Fatal("no moved-gap guess compared: the capture does not exercise the single-gap retries")
			}
		})
	}
}

// sizeFieldSlots returns the slots of a size field declaring total
// payload slots, in the receiver's reference colors.
func sizeFieldSlots(rx *Receiver, total int) []packet.RxSlot {
	order := rx.cfg.Order
	nSize, bps := packet.SizeSymbols(order), order.BitsPerSymbol()
	v := total << (nSize*bps - packet.SizeBits)
	var slots []packet.RxSlot
	for i := nSize - 1; i >= 0; i-- {
		sym := v >> (i * bps) & (int(order) - 1)
		slots = append(slots, packet.RxSlot{Kind: packet.KindData, AB: rx.refs[sym]})
	}
	return slots
}

// TestSplitJudgeSyntheticPackets runs the differential on synthetic
// packets, each carrying a real RS(35,17) codeword in factory colors,
// at 4-, 8-, 16- and 32-CSK. Two kinds cover what camera captures do
// not:
//   - two or three gaps 0–2 observed slots apart, each losing 4 slots:
//     under most splits the last symbol one gap erases and the first
//     the next gap erases share a codeword byte, which the erasure
//     rule must list once (capture gaps lie a frame apart);
//   - one gap reported 1–3 slots from where the loss fell: when the
//     certain attempt fails, a moved-gap guess must pass the judge
//     and be built (no moved-gap guess decodes in the captures).
func TestSplitJudgeSyntheticPackets(t *testing.T) {
	code := rs.MustNew(35, 17)
	rng := rand.New(rand.NewSource(31))
	for _, order := range []csk.Order{csk.CSK4, csk.CSK8, csk.CSK16, csk.CSK32} {
		rx, err := NewReceiver(RxConfig{
			Order: order, SymbolRate: 1500, WhiteFraction: 0.2, Code: code, UseFactoryReferences: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, code.K())
		rng.Read(data)
		cw, err := code.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		syms := order.Pack(packet.Scramble(cw))
		total := packet.SlotsForData(len(syms), 0.2)
		var payload []packet.RxSlot
		for _, white := range packet.WhiteLayout(total, 0.2) {
			slot := packet.RxSlot{Kind: packet.KindWhite}
			if !white {
				slot = packet.RxSlot{Kind: packet.KindData, AB: rx.refs[syms[0]]}
				syms = syms[1:]
			}
			payload = append(payload, slot)
		}
		// lose drops each run [from, to) of payload slots, ascending,
		// and lists a gap where each run was.
		lose := func(runs ...[2]int) packet.RxPacket {
			pkt := packet.RxPacket{Kind: packet.PacketData, Slots: sizeFieldSlots(rx, total)}
			next := 0
			for _, run := range runs {
				pkt.Slots = append(pkt.Slots, payload[next:run[0]]...)
				pkt.Gaps = append(pkt.Gaps, len(pkt.Slots))
				next = run[1]
			}
			pkt.Slots = append(pkt.Slots, payload[next:]...)
			return pkt
		}
		var tally judgeTally
		for gaps := 2; gaps <= 3; gaps++ {
			for apart := 0; apart <= 2; apart++ {
				for at := 40; at < 44; at++ {
					var runs [][2]int
					for k := 0; k < gaps; k++ {
						from := at + k*(4+apart)
						runs = append(runs, [2]int{from, from + 4})
					}
					checkPacket(t, rx, lose(runs...), &tally)
				}
			}
		}
		if tally.multiDecoded != tally.multiGap {
			t.Fatalf("%v: %d of %d multi-gap packets decoded; every packet's true split should", order, tally.multiDecoded, tally.multiGap)
		}
		// Byte errors use up the parity the erasures leave, so that the
		// misplaced slots of a displaced gap tip the certain attempt
		// over while the true placement still decodes.
		step := 16 / order.BitsPerSymbol() // data slots between errors in distinct bytes
		for errs := 0; errs <= 5; errs++ {
			for lost := 8; lost <= min(64, total-23); lost += 8 {
				for _, delta := range []int{-3, -2, -1, 1, 2, 3} {
					pkt := lose([2]int{20, 20 + lost})
					pkt.Gaps[0] += delta
					for i, d, e := packet.SizeSymbols(order), 0, 0; e < errs; i++ {
						if pkt.Slots[i].Kind == packet.KindData {
							if d%step == 0 {
								pkt.Slots[i].AB = rx.refs[(csk.NearestAB(pkt.Slots[i].AB, rx.refs)+1)%int(order)]
								e++
							}
							d++
						}
					}
					checkPacket(t, rx, pkt, &tally)
				}
			}
		}
		t.Logf("%v: %+v", order, tally)
		if tally.movedDecoded == 0 {
			t.Fatalf("%v: no moved-gap guess decoded", order)
		}
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
			i, seg.c.point.Order, tally.multiGap, tally.splits, tally.multiDecoded)
		if tally.multiDecoded == 0 {
			t.Fatalf("stretch %d: no multi-gap packet decoded, so the comparison has no passing split", i)
		}
	}
}

// searchPacket feeds a fresh receiver the capture's frames until one
// deframes a data packet for which want, given its gap count, whether
// it decoded and its RS attempts, holds. It returns the receiver, left
// in its state after that frame, the packet and its attempts.
func searchPacket(b *testing.B, c chaosCapture, want func(gaps int, recovered bool, attempts int) bool) (*Receiver, packet.RxPacket, int) {
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
			if pkt.Kind != packet.PacketData {
				continue
			}
			before := rx.c.rsAttempts.Value()
			var blk Block
			rx.decodeData(pkt, &blk)
			attempts := int(rx.c.rsAttempts.Value() - before)
			if want(len(pkt.Gaps), blk.Recovered, attempts) {
				return rx, pkt, attempts
			}
		}
	}
	b.Fatal("no packet of the kind wanted")
	return nil, packet.RxPacket{}, 0
}

// BenchmarkSplitSearch times decodeData on three packets of seeded
// Nexus 5 captures under perfbench's chaos schedule. At 4-CSK/1.5 kHz
// (seed 5), "resolved" is a multi-gap packet that decodes at its 691st
// split and "exhausted" one that tries all maxSplitTries splits and
// fails: the packets that set chaos-4csk's frame p99 (DESIGN.md §17).
// At 16-CSK/4 kHz (seed 11), "moved-gap" is a single-gap packet whose
// certain attempt and six moved-gap guesses all fail.
func BenchmarkSplitSearch(b *testing.B) {
	split := newChaosCapture(b, csk.CSK4, 1500, camera.Nexus5(), 3, 5)
	moved := newChaosCapture(b, csk.CSK16, 4000, camera.Nexus5(), 3, 11)
	for _, bc := range []struct {
		name string
		c    chaosCapture
		want func(gaps int, recovered bool, attempts int) bool
	}{
		{"resolved", split, func(gaps int, recovered bool, attempts int) bool {
			return gaps > 1 && recovered && attempts >= 200
		}},
		{"exhausted", split, func(gaps int, recovered bool, attempts int) bool {
			return gaps > 1 && !recovered && attempts == maxSplitTries
		}},
		{"moved-gap", moved, func(gaps int, recovered bool, attempts int) bool {
			return gaps == 1 && !recovered && attempts == 7
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rx, pkt, attempts := searchPacket(b, bc.c, bc.want)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var blk Block
				rx.decodeData(pkt, &blk)
				rx.putRawBuf(blk.RawSymbols)
				rx.putDataBuf(blk.Data)
			}
			b.ReportMetric(float64(attempts), "hypotheses/op")
		})
	}
}
