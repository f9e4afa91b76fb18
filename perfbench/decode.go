package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"colorbars"
	"colorbars/internal/camera"
	"colorbars/internal/cie"
	"colorbars/internal/coding"
	"colorbars/internal/colorspace"
	"colorbars/internal/csk"
	"colorbars/internal/fault"
	"colorbars/internal/modem"
	"colorbars/internal/rs"
	"colorbars/internal/telemetry"
)

// linkSpec is one in-process decode workload: a link, a camera, and
// the shape of the capture corpus.
type linkSpec struct {
	order      csk.Order
	rate       float64
	white      float64
	lossRatio  float64 // the loss ratio the RS code is sized for
	calEvery   int
	profile    camera.Profile
	captures   int     // independent captures, each its own set-up
	captureSec float64 // capture length of each
	chaos      bool    // run each capture under a seeded fault schedule
}

// clean16CSK is the paper's headline link as the facade configures it
// by default (16-CSK at 4 kHz, flicker-free white fraction, RS sized
// for a 0.38 loss ratio) on clean Nexus 5 captures.
func clean16CSK() linkSpec {
	tx, err := colorbars.NewTransmitter(colorbars.DefaultConfig())
	if err != nil {
		panic(err)
	}
	c := tx.Config()
	return linkSpec{
		order: c.Order, rate: c.SymbolRate, white: c.WhiteFraction,
		lossRatio: c.TargetLossRatio, calEvery: c.CalibrationEvery,
		profile: camera.Nexus5(), captures: 23, captureSec: 1.5,
	}
}

// chaos4CSK is the adaptive ladder's floor rung (4-CSK at 1.5 kHz,
// white fraction 0.2, RS sized for the camera's own loss ratio, as
// internal/linkadapt sizes it) on Nexus 5 captures, each under a
// seeded fault schedule in its middle.
func chaos4CSK() linkSpec {
	prof := camera.Nexus5()
	return linkSpec{
		order: csk.CSK4, rate: 1500, white: 0.2,
		lossRatio: prof.LossRatio(), calEvery: 6,
		profile: prof, captures: 13, captureSec: 3,
		chaos: true,
	}
}

func (s linkSpec) code() (*rs.Code, error) {
	return coding.Params{
		SymbolRate:   s.rate,
		FrameRate:    s.profile.FrameRate,
		LossRatio:    s.lossRatio,
		Order:        s.order,
		DataFraction: 1 - s.white,
	}.LinkCodeErasure()
}

// chaosMagnitude pins each fault class to the middle of the severity
// range fault.RandomSchedule draws from.
var chaosMagnitude = map[fault.Class]float64{
	fault.Occlusion:  0.975,
	fault.AWBDrift:   0.175,
	fault.FrameDrop:  0.6,
	fault.NoiseBurst: 0.275,
}

// chaosSchedule places one occlusion, AWB drift, frame-drop and noise
// burst the way fault.RandomSchedule does — each starting at a seeded
// point between 25% and 50% of the capture and ending by 70% — but
// pins every duration (12.5% of the capture) and severity to the
// middle of RandomSchedule's ranges. Every seed then carries the same
// amount of damage, so decode cost differs between seeds by where the
// damage lands, not by how much of it there is.
func chaosSchedule(seed int64, seconds float64) fault.Schedule {
	s := fault.RandomSchedule(seed, seconds, fault.Occlusion, fault.AWBDrift, fault.FrameDrop, fault.NoiseBurst)
	for i := range s.Events {
		e := &s.Events[i]
		e.Duration = min(0.125*seconds, 0.7*seconds-e.Start)
		e.Magnitude = chaosMagnitude[e.Class]
	}
	return s
}

// msgBlocks is the length of a decode workload's broadcast message.
const msgBlocks = 12

// makeSegment builds a broadcast message of n blocks of k bytes. Byte 0
// of each block is its sequence number, so any decoded block can be
// checked against what was sent; the rest is seeded payload.
func makeSegment(n, k int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	seg := make([]byte, n*k)
	rng.Read(seg)
	for j := 0; j < n; j++ {
		seg[j*k] = byte(j)
	}
	return seg
}

// blockTally classifies delivered blocks against the transmitted
// segment.
type blockTally struct {
	delivered, ok, failed, miscorrected int
}

func (t *blockTally) add(recovered bool, data, seg []byte, k int) {
	t.delivered++
	switch {
	case !recovered:
		t.failed++
	case len(data) == k && int(data[0])*k < len(seg) && bytes.Equal(data, seg[int(data[0])*k:int(data[0])*k+k]):
		t.ok++
	default:
		t.miscorrected++
	}
}

func (t *blockTally) merge(o blockTally) {
	t.delivered += o.delivered
	t.ok += o.ok
	t.failed += o.failed
	t.miscorrected += o.miscorrected
}

// storedFrame is a captured frame kept on the sensor's 8-bit
// quantization grid, one byte per component — an eighth of the float
// frame. load rebuilds the exact float pixels the camera produced (the
// same k/255 division the sensor model and the ingest wire codec use),
// so a large corpus stays resident and every pass decodes identical
// input.
type storedFrame struct {
	hdr    camera.Frame // geometry and timing; Pix unused
	levels []byte
}

var level8 = func() (t [256]float64) {
	for k := range t {
		t[k] = float64(k) / 255
	}
	return t
}()

func storeFrame(f *camera.Frame) (storedFrame, error) {
	sf := storedFrame{hdr: *f, levels: make([]byte, 3*len(f.Pix))}
	sf.hdr.Pix = nil
	for i, p := range f.Pix {
		for j, v := range [3]float64{p.R, p.G, p.B} {
			k := math.Round(v * 255)
			if k < 0 || k > 255 || level8[int(k)] != v {
				return sf, fmt.Errorf("pixel component %v is off the 8-bit grid", v)
			}
			sf.levels[3*i+j] = byte(k)
		}
	}
	return sf, nil
}

// load writes the frame into dst, reusing dst's pixel buffer.
func (sf *storedFrame) load(dst *camera.Frame) {
	pix := dst.Pix
	*dst = sf.hdr
	n := len(sf.levels) / 3
	if cap(pix) < n {
		pix = make([]colorspace.RGB, n)
	}
	pix = pix[:n]
	for i := range pix {
		l := sf.levels[3*i : 3*i+3]
		pix[i] = colorspace.RGB{R: level8[l[0]], G: level8[l[1]], B: level8[l[2]]}
	}
	dst.Pix = pix
}

// capture is one set-up: a transmitted segment and the frames a camera
// captured of its broadcast.
type capture struct {
	seg        []byte
	frames     []storedFrame
	seconds    float64 // capture time covered
	captured   int     // frames CaptureVideo produced (before frame faults)
	captureSec float64 // time spent in CaptureVideo
	setupSec   float64 // the whole set-up
	schedule   fault.Schedule
	want       passResult // the warm-up decode every later pass must reproduce
}

// captureBatch bounds how many float frames a set-up holds at once.
const captureBatch = 10

// setUp builds one capture: transmitter, waveform, optional fault
// injector, camera capture, and a warm-up decode whose result is the
// reference for every later pass.
func (s linkSpec) setUp(code *rs.Code, seed int64) (*capture, error) {
	start := time.Now()
	c := &capture{seg: makeSegment(msgBlocks, code.K(), fault.DeriveSeed(seed, "payload")), seconds: s.captureSec}
	tx, err := modem.NewTransmitter(modem.TxConfig{
		Order: s.order, SymbolRate: s.rate, WhiteFraction: s.white, Power: 1,
		Triangle: cie.SRGBTriangle, CalibrationEvery: s.calEvery, Code: code,
		Seed: fault.DeriveSeed(seed, "tx"),
	})
	if err != nil {
		return nil, err
	}
	w, err := tx.BuildWaveformRepeating(c.seg, s.captureSec+0.5)
	if err != nil {
		return nil, err
	}
	var src camera.Source = w
	var inj *fault.Injector
	if s.chaos {
		c.schedule = chaosSchedule(fault.DeriveSeed(seed, "schedule"), s.captureSec)
		inj = fault.New(fault.Config{Seed: fault.DeriveSeed(seed, "fault"), Schedule: c.schedule})
		src = inj.WrapSource(w)
	}
	cam := camera.New(s.profile, fault.DeriveSeed(seed, "camera"))
	total := int(s.captureSec * s.profile.FrameRate)
	for i0 := 0; i0 < total; i0 += captureBatch {
		t := time.Now()
		batch := cam.CaptureVideo(src, float64(i0)/s.profile.FrameRate, min(captureBatch, total-i0))
		c.captureSec += since(t)
		for j, f := range batch {
			n := 1
			if inj != nil {
				f, n = inj.FilterFrame(f, i0+j)
			}
			for ; n > 0; n-- {
				sf, err := storeFrame(f)
				if err != nil {
					return nil, err
				}
				c.frames = append(c.frames, sf)
			}
		}
		c.captured += len(batch)
	}
	if len(c.frames) == 0 {
		return nil, fmt.Errorf("empty capture")
	}
	c.want, err = s.decodePass(code, c, &camera.Frame{}, nil, nil, 0)
	c.setupSec = since(start)
	return c, err
}

func (s linkSpec) newReceiver(code *rs.Code) (*modem.Receiver, error) {
	return modem.NewReceiver(modem.RxConfig{
		Order: s.order, SymbolRate: s.rate, WhiteFraction: s.white,
		Code: code, Triangle: cie.SRGBTriangle, Telemetry: telemetry.NewRegistry(),
	})
}

// passResult is what one decode of one capture produced.
type passResult struct {
	tally    blockTally
	digest   uint64
	attempts int64 // rx.rs_attempts
	rsOK     int64 // rx.rs_decode_ok
	discards int64 // rx.deframe_discards
	resyncs  int64 // rx.resyncs
	degraded int64 // rx.degraded_blocks
	erasures []int // per delivered block (warm-up pass only), for the rs.decode_us replay

	// decodeSec is the pass's wall time from its first frame through
	// Flush, less the time spent loading stored frames.
	decodeSec float64
}

// sameDecode reports whether two passes over one capture produced the
// same blocks and the same tail work.
func (a passResult) sameDecode(b passResult) bool {
	return a.digest == b.digest && a.tally == b.tally && a.attempts == b.attempts &&
		a.rsOK == b.rsOK && a.discards == b.discards
}

// samples receives per-frame timings: one slice per corpus frame,
// one entry per pass, in microseconds.
type samples struct {
	frame, analyze, tail [][]float64
	passSec              dist // per pass over the corpus, the sum of its captures' decodeSec
	allocBytes           uint64
	frames               int
}

func newSamples(n int) *samples {
	return &samples{frame: make([][]float64, n), analyze: make([][]float64, n), tail: make([][]float64, n)}
}

// decodePass decodes one capture on a fresh receiver, frames back to
// back on the calling goroutine. Each frame is loaded into scratch,
// then Analyze and ProcessAnalysis are timed. With sm non-nil the
// timings land at sm's index base+i; with the tracer on, the frame's
// span and its two halves share the frame's id.
func (s linkSpec) decodePass(code *rs.Code, c *capture, scratch *camera.Frame, sm *samples, tr *tracer, base int) (passResult, error) {
	rx, err := s.newReceiver(code)
	if err != nil {
		return passResult{}, err
	}
	k := code.K()
	var res passResult
	h := fnv.New64a()
	take := func(blocks []modem.Block) {
		for _, b := range blocks {
			res.tally.add(b.Recovered, b.Data, c.seg, k)
			if sm == nil {
				res.erasures = append(res.erasures, b.Erasures)
			}
			digestBlock(h, b.Recovered, b.Data)
		}
		rx.Recycle(blocks)
	}
	traced := sm != nil && tr.on
	start := time.Now()
	var loading time.Duration
	for i := range c.frames {
		tl := time.Now()
		c.frames[i].load(scratch)
		var alloc0 uint64
		if traced {
			alloc0 = heapAllocs()
		}
		t0 := time.Now()
		loading += t0.Sub(tl)
		a := rx.Analyze(scratch)
		t1 := time.Now()
		blocks := rx.ProcessAnalysis(a)
		t2 := time.Now()
		if sm != nil {
			j := base + i
			sm.frame[j] = append(sm.frame[j], float64(t2.Sub(t0).Nanoseconds())/1e3)
			sm.analyze[j] = append(sm.analyze[j], float64(t1.Sub(t0).Nanoseconds())/1e3)
			sm.tail[j] = append(sm.tail[j], float64(t2.Sub(t1).Nanoseconds())/1e3)
			if traced {
				sm.allocBytes += heapAllocs() - alloc0
				id := uint64(j)<<20 | uint64(len(sm.frame[j]))
				p := tr.add(id, "frame", -1, t0, t2)
				tr.add(id, "modem.Analyze", p, t0, t1)
				tr.add(id, "modem.ProcessAnalysis", p, t1, t2)
			}
		}
		take(blocks)
	}
	if sm != nil {
		sm.frames += len(c.frames)
	}
	take(rx.Flush())
	res.decodeSec = (time.Since(start) - loading).Seconds()
	snap := rx.Snapshot().Counters
	res.digest = h.Sum64()
	res.attempts = snap["rx.rs_attempts"]
	res.rsOK = snap["rx.rs_decode_ok"]
	res.discards = snap["rx.deframe_discards"]
	res.resyncs = snap["rx.resyncs"]
	res.degraded = snap["rx.degraded_blocks"]
	return res, nil
}

// setUpCorpus builds the captures on up to two goroutines.
func (s linkSpec) setUpCorpus(code *rs.Code, seed int64) ([]*capture, error) {
	corpus := make([]*capture, s.captures)
	errs := make([]error, s.captures)
	next := make(chan int, s.captures)
	for i := range corpus {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < min(2, runtime.NumCPU()); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				corpus[i], errs[i] = s.setUp(code, fault.DeriveSeed(seed, fmt.Sprintf("capture-%d", i)))
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
	}
	return corpus, nil
}

// minPasses is the fewest timed passes behind each frame's cost.
const minPasses = 3

// runDecode is the clean-16csk and chaos-4csk workload. It sets up the
// corpus (setup_s is the median set-up time of one capture), then
// decodes the whole corpus pass after pass, frames back to back on one
// goroutine, until the measuring time is spent. Every pass must
// reproduce each capture's warm-up decode exactly.
//
// decode_fps is the corpus's frames over the median pass's wall time
// (first frame through Flush, frame loading taken out), so garbage
// collection and any other cost of the decode counts. For the frame
// percentiles, each frame's cost is the fastest of its timed decodes:
// decoding a frame is deterministic work, interference from other
// processes on a shared host only ever adds time to it, and the passes
// are spread over the whole run, so a slow spell of the host cannot
// cover all of them. The traced run alternates untraced and traced
// passes; their median pass times give the tracing overhead.
func runDecode(s linkSpec, seed int64, seconds float64, tr *tracer, rep *report) error {
	code, err := s.code()
	if err != nil {
		return err
	}
	// The corpus stays resident for the whole run; a tight GC target
	// while it is built keeps the transient float frames from doubling
	// the heap.
	gc := debug.SetGCPercent(20)
	corpus, err := s.setUpCorpus(code, seed)
	debug.SetGCPercent(gc)
	if err != nil {
		return err
	}
	var (
		setups, capMs dist
		tally         blockTally
		want          passResult // the seed-fixed decode of the whole corpus
		capSecs       float64
		n             int
	)
	for i, c := range corpus {
		setups = append(setups, c.setupSec)
		capMs = append(capMs, 1e3*c.captureSec/float64(c.captured))
		tally.merge(c.want.tally)
		want.attempts += c.want.attempts
		want.rsOK += c.want.rsOK
		want.discards += c.want.discards
		want.resyncs += c.want.resyncs
		want.degraded += c.want.degraded
		want.erasures = append(want.erasures, c.want.erasures...)
		capSecs += c.seconds
		n += len(c.frames)
		if s.chaos && i < 3 {
			rep.notef("capture %d faults: %v", i, c.schedule)
		}
	}
	rep.notef("link %v@%gHz white %.3f RS(%d,%d) on %s: %d captures of %gs, %d frames",
		s.order, s.rate, s.white, code.N(), code.K(), s.profile.Name, s.captures, s.captureSec, n)
	if tally.ok == 0 {
		return fmt.Errorf("%w: no block decoded correctly", errGate)
	}
	failRatio := ratio(float64(tally.failed+tally.miscorrected), float64(tally.delivered))
	rep.notef("blocks per pass: %d delivered, %d byte-matched, %d failed, %d miscorrected; rx.rs_attempts %d",
		tally.delivered, tally.ok, tally.failed, tally.miscorrected, want.attempts)

	traced := tr.on
	plain, withTrace := newSamples(n), newSamples(n)
	scratch := &camera.Frame{}
	runtime.GC()
	cpu0, wall0 := cpuSeconds(), time.Now()
	end := wall0.Add(time.Duration(seconds * float64(time.Second)))
	passes := 0
	for ; passes < minPasses*(1+btoi(traced)) || time.Now().Before(end); passes++ {
		sm := plain
		tr.on = traced && passes%2 == 1
		if tr.on {
			sm = withTrace
		}
		base := 0
		var sec float64
		for _, c := range corpus {
			got, err := s.decodePass(code, c, scratch, sm, tr, base)
			if err != nil {
				return err
			}
			if !got.sameDecode(c.want) {
				return fmt.Errorf("%w: a capture decoded differently on pass %d (blocks %+v, want %+v)",
					errGate, passes, got.tally, c.want.tally)
			}
			base += len(c.frames)
			sec += got.decodeSec
		}
		sm.passSec = append(sm.passSec, sec)
	}
	tr.on = traced
	busy := (cpuSeconds() - cpu0) / (since(wall0) * float64(runtime.NumCPU()))

	cost := fastest(plain.frame)
	p99, note := cost.tail("frame_p99_us")
	rep.notes = append(rep.notes, note+fmt.Sprintf(", each frame the fastest of %d decodes", len(plain.frame[0])))
	rep.notef("decode_fps: median of %d untraced passes over the corpus", len(plain.passSec))
	rep.attempted = passes * n
	rep.setE2E("setup_s", "s", setups.median())
	rep.setE2E("decode_fps", "frames/s", float64(n)/plain.passSec.median())
	rep.setE2E("frame_p50_us", "us", cost.median())
	rep.setE2E("frame_p99_us", "us", p99)
	rep.setE2E("goodput_bps", "bit/s", float64(tally.ok*code.K()*8)/capSecs)
	rep.setLayer("block_fail_ratio", "ratio", failRatio)

	zeroFleetLayers(rep)
	missed := 0
	for _, v := range cost {
		if v > 1e6/s.profile.FrameRate {
			missed++
		}
	}
	rep.setLayer("camera.capture_ms", "ms", capMs.median())
	rep.setLayer("slo_miss_ratio", "ratio", ratio(float64(missed), float64(n)))
	rep.setLayer("modem.rs_attempts_per_block", "count", ratio(float64(want.attempts), float64(tally.delivered)))
	rep.setLayer("modem.rs_ok_ratio", "ratio", ratio(float64(want.rsOK), float64(want.attempts)))
	rep.setLayer("modem.deframe_discards", "count", float64(want.discards))
	rep.setLayer("modem.resyncs", "count", float64(want.resyncs))
	rep.setLayer("modem.degraded_blocks", "count", float64(want.degraded))
	rep.setLayer("proc.cpu_busy", "ratio", busy)
	if !traced {
		return nil
	}

	an, tl, tcost := fastest(withTrace.analyze), fastest(withTrace.tail), fastest(withTrace.frame)
	ap99, note := an.tail("modem.analyze_us.p99")
	rep.notes = append(rep.notes, note)
	tp99, note := tl.tail("modem.tail_us.p99")
	rep.notes = append(rep.notes, note)
	rep.setLayer("modem.analyze_us.p50", "us", an.median())
	rep.setLayer("modem.analyze_us.p99", "us", ap99)
	rep.setLayer("modem.tail_us.p50", "us", tl.median())
	rep.setLayer("modem.tail_us.p99", "us", tp99)
	rep.setLayer("modem.tail_share", "ratio", ratio(tl.sum(), an.sum()+tl.sum()))
	rep.setLayer("modem.alloc_bytes_per_frame", "B", ratio(float64(withTrace.allocBytes), float64(withTrace.frames)))
	overhead := withTrace.passSec.median()/plain.passSec.median() - 1
	rep.setLayer("trace.overhead", "ratio", overhead)
	rsUs, err := replayRS(code, want.erasures, seed)
	if err != nil {
		return err
	}
	rep.setLayer("rs.decode_us", "us", rsUs)

	// Accounting: per frame, Analyze + ProcessAnalysis must account for
	// the frame time, and the timed calls must account for the traced
	// passes' wall time once the benchmark's own frame loading is taken
	// out.
	var timed float64
	for _, v := range withTrace.frame {
		timed += dist(v).sum() / 1e6
	}
	covered := ratio(timed, withTrace.passSec.sum())
	rep.notef("accounting: Analyze %.1f%% + ProcessAnalysis %.1f%% of the median frame cost; timed calls cover %.1f%% of decode wall time; tracing overhead %+.2f%%",
		100*ratio(an.sum(), tcost.sum()), 100*ratio(tl.sum(), tcost.sum()), 100*covered, 100*overhead)
	if covered < 0.8 || covered > 1.0001 {
		return fmt.Errorf("%w: Analyze + ProcessAnalysis cover %.1f%% of the decode wall time", errGate, 100*covered)
	}
	return nil
}

// heapAllocs reads the process's cumulative heap allocation in bytes
// without stopping the world.
func heapAllocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// fastest reduces per-frame sample lists to each frame's minimum.
func fastest(per [][]float64) dist {
	out := make(dist, len(per))
	for i, v := range per {
		out[i] = dist(v).quantile(0)
	}
	return out
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// replayRS times rs.(*Decoder).Decode on codewords of the workload's
// code carrying the erasure counts its blocks reported, and returns
// the median time per call in microseconds.
func replayRS(code *rs.Code, erasures []int, seed int64) (float64, error) {
	if len(erasures) == 0 {
		return 0, nil
	}
	n, k := code.N(), code.K()
	rng := rand.New(rand.NewSource(fault.DeriveSeed(seed, "rs-replay")))
	dec := code.NewDecoder()
	type job struct {
		cw   []byte
		eras []int
	}
	jobs := make([]job, len(erasures))
	for i, e := range erasures {
		data := make([]byte, k)
		rng.Read(data)
		cw, err := code.Encode(data)
		if err != nil {
			return 0, err
		}
		pos := rng.Perm(n)[:min(e, n-k)]
		for _, p := range pos {
			cw[p] = 0
		}
		jobs[i] = job{cw: cw, eras: pos}
	}
	work := make([]byte, n)
	var per dist
	for round := 0; round < 5 || (per.sum() < 20e3 && round < 1000); round++ {
		start := time.Now()
		for _, j := range jobs {
			copy(work, j.cw)
			if _, err := dec.Decode(work, j.eras); err != nil {
				return 0, fmt.Errorf("rs replay: %w", err)
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/1e3/float64(len(jobs)))
	}
	return per.median(), nil
}

// zeroFleetLayers reports the ingest-only layers as 0 on the in-process
// decode workloads, which never touch them.
func zeroFleetLayers(rep *report) {
	for name, unit := range map[string]string{
		"pipeline.submit_to_decode_us.p50": "us",
		"pipeline.submit_to_decode_us.p99": "us",
		"ingest.transport_us.p50":          "us",
		"ingest.transport_us.p99":          "us",
		"ingest.session_open_ms.p50":       "ms",
		"ingest.alloc_bytes_per_frame":     "B",
		"ingest.cal_hit_ratio":             "ratio",
		"ingest.shed_queue":                "count",
		"ingest.shed_tokens":               "count",
		"shed_ratio":                       "ratio",
		"gen.lag_us.p99":                   "us",
	} {
		rep.setLayer(name, unit, 0)
	}
}
