package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"colorbars/internal/camera"
	"colorbars/internal/cie"
	"colorbars/internal/coding"
	"colorbars/internal/csk"
	"colorbars/internal/fault"
	"colorbars/internal/ingest"
	"colorbars/internal/modem"
	"colorbars/internal/packet"
	"colorbars/internal/rs"
	"colorbars/internal/telemetry"
)

// fleetSpec is the open-loop ingest workload: short device sessions
// back to back on a few loopback connections, FRAMEs paced by a relay
// at a fixed per-connection rate.
type fleetSpec struct {
	order            csk.Order
	rate, white      float64
	profiles         []camera.Profile // Nexus 5 first: rs.decode_us replays its blocks
	framesPerSession int              // frames each session replays
	period           time.Duration    // between FRAMEs on one connection
	gap              time.Duration    // between sessions on one connection
	devices          int              // distinct device ids
	shards           int
	rounds           int     // set-up + load rounds per run
	verifyEvery      int     // re-decode every n-th session serially
	sloMs            float64 // ACK deadline after the frame was due
}

func fleetDefaults() fleetSpec {
	return fleetSpec{
		order: csk.CSK16, rate: 4000, white: 0.2,
		profiles:         []camera.Profile{camera.Nexus5(), camera.IPhone5S(), camera.Ideal()},
		framesPerSession: 30,
		period:           8 * time.Millisecond,
		gap:              40 * time.Millisecond,
		devices:          12,
		shards:           2,
		rounds:           5,
		verifyEvery:      4,
		sloMs:            100,
	}
}

// fleetCapture is one replayable device capture.
type fleetCapture struct {
	prof   camera.Profile
	code   *rs.Code
	hello  ingest.Hello // DeviceID filled per session
	seg    []byte
	frames []*camera.Frame
}

// fleetRig is one set-up: one capture per profile, shared by every
// device with that profile, the server, and one relay per connection.
type fleetRig struct {
	caps       []*fleetCapture // by profile
	captureSec float64
	frames     int
	srv        *ingest.Server
	reg        *telemetry.Registry
	relays     []*relay
}

func (r *fleetRig) close() {
	for _, rl := range r.relays {
		rl.close()
	}
	if r.srv != nil {
		r.srv.Close(context.Background())
	}
}

func (s fleetSpec) buildCapture(prof camera.Profile, seed int64) (*fleetCapture, float64, error) {
	params := coding.Params{
		SymbolRate: s.rate, FrameRate: prof.FrameRate, LossRatio: prof.LossRatio(),
		Order: s.order, DataFraction: 1 - s.white,
	}
	code, err := params.LinkCodeErasure()
	if err != nil {
		return nil, 0, err
	}
	c := &fleetCapture{
		prof: prof, code: code,
		seg: makeSegment(8, code.K(), fault.DeriveSeed(seed, "payload")),
		hello: ingest.Hello{
			Order: int(s.order), SymbolRate: s.rate, WhiteFraction: s.white,
			DataFraction: 1 - s.white, FrameRate: prof.FrameRate, LossRatio: prof.LossRatio(),
		},
	}
	tx, err := modem.NewTransmitter(modem.TxConfig{
		Order: s.order, SymbolRate: s.rate, WhiteFraction: s.white, Power: 1,
		Triangle: cie.SRGBTriangle, CalibrationEvery: 3, Code: code,
		Seed: fault.DeriveSeed(seed, "tx"),
	})
	if err != nil {
		return nil, 0, err
	}
	secs := float64(s.framesPerSession) / prof.FrameRate
	w, err := tx.BuildWaveformRepeating(c.seg, secs+0.5)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	c.frames = camera.New(prof, fault.DeriveSeed(seed, "camera")).CaptureVideo(w, 0, s.framesPerSession)
	return c, since(start), nil
}

// setUp simulates the captures, starts the server and the relays, and
// warms the server with one session per profile.
func (s fleetSpec) setUp(seed int64, conns int) (*fleetRig, error) {
	rig := &fleetRig{}
	for pi, prof := range s.profiles {
		c, sec, err := s.buildCapture(prof, fault.DeriveSeed(seed, fmt.Sprintf("capture-%d", pi)))
		if err != nil {
			return rig, err
		}
		rig.captureSec += sec
		rig.frames += len(c.frames)
		rig.caps = append(rig.caps, c)
	}
	rig.reg = telemetry.NewRegistry()
	srv, err := ingest.New(ingest.Config{Addr: "127.0.0.1:0", Shards: s.shards, Telemetry: rig.reg})
	if err != nil {
		return rig, err
	}
	rig.srv = srv
	for i := 0; i < conns; i++ {
		rl, err := newRelay(srv.Addr().String())
		if err != nil {
			return rig, err
		}
		rig.relays = append(rig.relays, rl)
	}
	for _, c := range rig.caps {
		if _, _, err := s.session(rig.relays[0], c, "warmup-"+shortName(c.prof), time.Now(), s.period/4); err != nil {
			return rig, fmt.Errorf("warm-up: %w", err)
		}
	}
	return rig, nil
}

func shortName(p camera.Profile) string {
	return strings.ToLower(strings.ReplaceAll(p.Name, " ", ""))
}

// session runs one paced device session through a relay and checks
// the FRAME/response pairing.
func (s fleetSpec) session(rl *relay, c *fleetCapture, device string, base time.Time, period time.Duration) (*ingest.SessionResult, *plan, error) {
	p := newPlan(base, len(c.frames), period)
	rl.plans <- p
	hello := c.hello
	hello.DeviceID = device
	sr, err := ingest.RunSession(rl.addr(), hello, c.frames, c.prof.QuantBits)
	<-p.done
	if err != nil {
		return nil, nil, err
	}
	if err := p.check(); err != nil {
		return nil, nil, fmt.Errorf("%w: %s: %v", errGate, device, err)
	}
	if len(sr.AckLatencyUs)+len(sr.Shed) != len(c.frames) || sr.Stats.FramesIn != uint64(len(c.frames)) {
		return nil, nil, fmt.Errorf("%w: %s: %d ACK + %d SHED for %d frames (server saw %d)",
			errGate, device, len(sr.AckLatencyUs), len(sr.Shed), len(c.frames), sr.Stats.FramesIn)
	}
	for seq, us := range sr.AckLatencyUs {
		if p.shed[seq] != 0 || p.serverUs[seq] != us {
			return nil, nil, fmt.Errorf("%w: %s: ACK %d differs between client and relay", errGate, device, seq)
		}
	}
	return sr, p, nil
}

// sessionRecord is one measured session.
type sessionRecord struct {
	cap    *fleetCapture
	sr     *ingest.SessionResult
	plan   *plan
	id     uint64
	called time.Time
	ended  time.Time
	reconn bool
}

// roundStats is what one round measured. A round is one set-up (fresh
// captures, server and relays) driven open loop for its share of the
// measuring time; rounds run the same schedule over their own
// captures.
type roundStats struct {
	ack, server, transport, lag, openMs dist // ack: due-to-ACK µs of each ACKed frame
	offered, acked, met, shedQ, shedT   int
	hits, reconns, sessions             int
	tally                               blockTally
	goodBits, capSecs, wall, cpu        float64
	captureSec                          float64
	captured                            int
	alloc                               uint64
	attempts, rsOK, blocksOut           float64
	discards, resyncs, degraded         float64
	analyze, tail                       histSketch
	erasures                            []int            // of re-decoded Nexus 5 blocks, for rs.decode_us
	nexusCode                           *rs.Code         // the Nexus 5 devices' code
	records                             []*sessionRecord // plans and times only, for the trace
}

// round drives one set-up open loop: each connection runs device
// sessions back to back, session k's FRAMEs due every period from
// t0 + k·cycle, until the next session would end past the round.
func (s fleetSpec) round(rig *fleetRig, conns int, seconds float64) (*roundStats, error) {
	st := &roundStats{captureSec: rig.captureSec, captured: rig.frames, nexusCode: rig.caps[0].code}
	before := rig.reg.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := time.Now().Add(20 * time.Millisecond)
	end := t0.Add(time.Duration(seconds * float64(time.Second)))
	cycle := time.Duration(s.framesPerSession)*s.period + s.gap

	var (
		mu       sync.Mutex
		records  []*sessionRecord
		firstErr error
		wg       sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			offset := time.Duration(c) * s.period / time.Duration(conns)
			for k := 0; ; k++ {
				base := t0.Add(offset + time.Duration(k)*cycle)
				if base.Add(time.Duration(s.framesPerSession) * s.period).After(end) {
					return
				}
				n := k*conns + c
				dev := n % s.devices
				fc := rig.caps[dev%len(s.profiles)]
				called := time.Now()
				sr, p, err := s.session(rig.relays[c], fc, fmt.Sprintf("dev-%02d-%s", dev, shortName(fc.prof)), base, s.period)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				records = append(records, &sessionRecord{
					cap: fc, sr: sr, plan: p, id: uint64(n),
					called: called, ended: time.Now(), reconn: n >= s.devices,
				})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	st.wall = time.Since(t0).Seconds()
	st.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	st.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	after := rig.reg.Snapshot()
	if firstErr != nil {
		return nil, firstErr
	}
	st.sessions = len(records)

	// Per-frame accounting from the relay's timestamps.
	for _, r := range records {
		p := r.plan
		st.offered += len(p.due)
		for i := range p.due {
			st.lag = append(st.lag, float64(p.sent[i].Sub(p.due[i]).Nanoseconds())/1e3)
			switch p.shed[i] {
			case 0:
				st.acked++
				a := float64(p.answered[i].Sub(p.due[i]).Nanoseconds()) / 1e3
				st.ack = append(st.ack, a)
				st.server = append(st.server, float64(p.serverUs[i]))
				st.transport = append(st.transport, float64(p.answered[i].Sub(p.sent[i]).Nanoseconds())/1e3-float64(p.serverUs[i]))
				if a <= s.sloMs*1e3 {
					st.met++
				}
			case ingest.ShedQueue:
				st.shedQ++
			default:
				st.shedT++
			}
		}
		st.openMs = append(st.openMs, float64(p.welcomeAt.Sub(p.helloAt).Nanoseconds())/1e6)
		if r.reconn {
			st.reconns++
			if r.sr.CalHit() {
				st.hits++
			}
		}
		ok := st.tally.ok
		for _, b := range r.sr.Blocks {
			st.tally.add(b.Recovered, b.Data, r.cap.seg, r.cap.code.K())
		}
		st.goodBits += float64((st.tally.ok - ok) * r.cap.code.K() * 8)
		st.capSecs += float64(len(p.due)) / r.cap.prof.FrameRate
	}

	// The loadgen check: sampled sessions re-decoded serially over
	// exactly the admitted frames must reproduce the wire blocks.
	for _, r := range records {
		if r.id%uint64(s.verifyEvery) == 0 {
			eras, err := verifySession(r)
			if err != nil {
				return nil, err
			}
			if r.cap == rig.caps[0] {
				st.erasures = append(st.erasures, eras...)
			}
		}
		r.cap, r.sr = nil, nil
	}
	st.records = records

	// The server's receivers roll their rx.* counters and span
	// histograms up into its registry; the round's deltas are the
	// modem layer's share of the work.
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	st.attempts, st.rsOK, st.blocksOut = delta("rx.rs_attempts"), delta("rx.rs_decode_ok"), delta("ingest.blocks_out")
	st.discards, st.resyncs, st.degraded = delta("rx.deframe_discards"), delta("rx.resyncs"), delta("rx.degraded_blocks")
	st.analyze = histDelta(before.Histograms["rx.analyze"], after.Histograms["rx.analyze"])
	st.tail = histDelta(before.Histograms["rx.frame"], after.Histograms["rx.frame"])
	return st, nil
}

// runFleet is the fleet workload: rounds of set-up plus open-loop
// load, each round an equal share of the measuring time, the same
// schedule and its own seeded captures, so goodput_bps averages over
// every round's captures. setup_s is the median set-up. frame_p50_us and
// frame_p99_us are percentiles of the client-observed due-to-ACK
// latency of every frame offered in every round, a shed frame counting
// as infinitely late.
func runFleet(seed int64, seconds float64, tr *tracer, rep *report) error {
	s := fleetDefaults()
	conns := runtime.NumCPU()
	offered := float64(conns) * float64(s.framesPerSession) /
		(float64(s.framesPerSession)*s.period.Seconds() + s.gap.Seconds())
	rep.notef("fleet: %d connections, %d shards, %d devices over %d profiles; open loop %.0f frames/s offered (%d-frame sessions, %v apart, %v between sessions); %d rounds",
		conns, s.shards, s.devices, len(s.profiles), offered, s.framesPerSession, s.period, s.gap, s.rounds)

	var setups dist
	var rounds []*roundStats
	for i := 0; i < s.rounds; i++ {
		start := time.Now()
		rig, err := s.setUp(fault.DeriveSeed(seed, fmt.Sprintf("fleet-%d", i)), conns)
		if err != nil {
			rig.close()
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, since(start))
		st, err := s.round(rig, conns, seconds/float64(s.rounds))
		rig.close()
		if err != nil {
			return err
		}
		if st.sessions == 0 {
			return fmt.Errorf("no session fits in a %gs round", seconds/float64(s.rounds))
		}
		rounds = append(rounds, st)
		runtime.GC()
	}

	// Pool the rounds for everything else.
	all := &roundStats{}
	for _, st := range rounds {
		all.ack = append(all.ack, st.ack...)
		all.server = append(all.server, st.server...)
		all.transport = append(all.transport, st.transport...)
		all.lag = append(all.lag, st.lag...)
		all.openMs = append(all.openMs, st.openMs...)
		all.offered += st.offered
		all.acked += st.acked
		all.met += st.met
		all.shedQ += st.shedQ
		all.shedT += st.shedT
		all.hits += st.hits
		all.reconns += st.reconns
		all.sessions += st.sessions
		all.tally.merge(st.tally)
		all.goodBits += st.goodBits
		all.capSecs += st.capSecs
		all.wall += st.wall
		all.cpu += st.cpu
		all.captureSec += st.captureSec
		all.captured += st.captured
		all.alloc += st.alloc
		all.attempts += st.attempts
		all.rsOK += st.rsOK
		all.blocksOut += st.blocksOut
		all.discards += st.discards
		all.resyncs += st.resyncs
		all.degraded += st.degraded
		all.analyze = all.analyze.plus(st.analyze)
		all.tail = all.tail.plus(st.tail)
		all.erasures = append(all.erasures, st.erasures...)
		all.records = append(all.records, st.records...)
	}
	rep.notef("fleet: %d sessions, %d frames offered, %d acked, %d shed; every sampled session matched a serial re-decode",
		all.sessions, all.offered, all.acked, all.shedQ+all.shedT)
	late := append(dist(nil), all.ack...)
	for i := 0; i < all.shedQ+all.shedT; i++ {
		late = append(late, math.Inf(1))
	}
	p99, note := late.tail("frame_p99_us")
	rep.notes = append(rep.notes, note+fmt.Sprintf(" due-to-ACK latencies over %d rounds, shed frames as +Inf", len(rounds)))
	if math.IsInf(p99, 1) {
		return fmt.Errorf("%d of %d frames shed: the fleet is overloaded and its ACK tail is unbounded", all.shedQ+all.shedT, all.offered)
	}

	failRatio := ratio(float64(all.tally.failed+all.tally.miscorrected), float64(all.tally.delivered))
	rep.attempted = all.offered
	rep.failed = all.shedQ + all.shedT
	rep.setE2E("setup_s", "s", setups.median())
	rep.setE2E("decode_fps", "frames/s", float64(all.acked)/all.wall)
	rep.setE2E("frame_p50_us", "us", late.median())
	rep.setE2E("frame_p99_us", "us", p99)
	rep.setE2E("goodput_bps", "bit/s", all.goodBits/all.capSecs)
	rep.setLayer("block_fail_ratio", "ratio", failRatio)

	rep.setLayer("camera.capture_ms", "ms", 1e3*all.captureSec/float64(all.captured))
	rep.setLayer("slo_miss_ratio", "ratio", 1-ratio(float64(all.met), float64(all.offered)))
	rep.setLayer("shed_ratio", "ratio", ratio(float64(all.shedQ+all.shedT), float64(all.offered)))
	rep.setLayer("ingest.shed_queue", "count", float64(all.shedQ))
	rep.setLayer("ingest.shed_tokens", "count", float64(all.shedT))
	rep.setLayer("ingest.cal_hit_ratio", "ratio", ratio(float64(all.hits), float64(all.reconns)))
	rep.setLayer("ingest.session_open_ms.p50", "ms", all.openMs.median())
	rep.setLayer("ingest.alloc_bytes_per_frame", "B", ratio(float64(all.alloc), float64(all.offered)))
	sp99, note := all.server.tail("pipeline.submit_to_decode_us.p99")
	rep.notes = append(rep.notes, note)
	tp99, note := all.transport.tail("ingest.transport_us.p99")
	rep.notes = append(rep.notes, note)
	lp99, note := all.lag.tail("gen.lag_us.p99")
	rep.notes = append(rep.notes, note)
	rep.setLayer("pipeline.submit_to_decode_us.p50", "us", all.server.median())
	rep.setLayer("pipeline.submit_to_decode_us.p99", "us", sp99)
	rep.setLayer("ingest.transport_us.p50", "us", all.transport.median())
	rep.setLayer("ingest.transport_us.p99", "us", tp99)
	rep.setLayer("gen.lag_us.p99", "us", lp99)
	rep.setLayer("proc.cpu_busy", "ratio", all.cpu/(all.wall*float64(runtime.NumCPU())))
	rep.setLayer("modem.rs_attempts_per_block", "count", ratio(all.attempts, all.blocksOut))
	rep.setLayer("modem.rs_ok_ratio", "ratio", ratio(all.rsOK, all.attempts))
	rep.setLayer("modem.deframe_discards", "count", all.discards)
	rep.setLayer("modem.resyncs", "count", all.resyncs)
	rep.setLayer("modem.degraded_blocks", "count", all.degraded)
	rep.setLayer("modem.analyze_us.p50", "us", 1e6*all.analyze.quantile(0.5))
	rep.setLayer("modem.analyze_us.p99", "us", 1e6*all.analyze.quantile(0.99))
	rep.setLayer("modem.tail_us.p50", "us", 1e6*all.tail.quantile(0.5))
	rep.setLayer("modem.tail_us.p99", "us", 1e6*all.tail.quantile(0.99))
	rep.setLayer("modem.tail_share", "ratio", ratio(all.tail.sum, all.analyze.sum+all.tail.sum))
	rep.setLayer("modem.alloc_bytes_per_frame", "B", 0)
	rep.setLayer("trace.overhead", "ratio", 0)
	rsUs := 0.0
	if tr.on {
		var err error
		if rsUs, err = replayRS(rounds[0].nexusCode, all.erasures, seed); err != nil {
			return err
		}
	}
	rep.setLayer("rs.decode_us", "us", rsUs)

	// Spans are rebuilt from timestamps the relay takes anyway, so
	// tracing adds no work on the request path.
	for _, r := range all.records {
		traceSession(tr, r)
	}
	rep.notef("accounting: transport %.1f%% + server %.1f%% of ACK latency; generator lag the rest",
		100*ratio(all.transport.sum(), all.ack.sum()), 100*ratio(all.server.sum(), all.ack.sum()))
	return nil
}

// traceSession records one session's spans: the RunSession call and
// its WELCOME handshake, and per frame the due-to-ACK interval split
// into generator lag, transport, and the server's submit-to-decode
// latency (placed at the end of the transport interval).
func traceSession(tr *tracer, r *sessionRecord) {
	if !tr.on {
		return
	}
	p := r.plan
	id := r.id << 16
	root := tr.add(id, "ingest.RunSession", -1, r.called, r.ended)
	tr.add(id, "ingest.open", root, p.helloAt, p.welcomeAt)
	for i := range p.due {
		fid := id | uint64(i+1)
		end := p.answered[i]
		f := tr.add(fid, "frame", -1, p.due[i], end)
		tr.add(fid, "gen.lag", f, p.due[i], p.sent[i])
		t := tr.add(fid, "ingest.transport", f, p.sent[i], end)
		if p.shed[i] == 0 {
			tr.add(fid, "pipeline.submit_to_decode", t, end.Add(-time.Duration(p.serverUs[i])*time.Microsecond), end)
		}
	}
}

// verifySession re-decodes the session's admitted frames on a serial
// receiver, seeded from the WELCOME snapshot when the server seeded its
// own, and requires the same block stream the wire delivered. It
// returns the erasure counts of the re-decoded blocks.
func verifySession(r *sessionRecord) ([]int, error) {
	h := r.cap.hello
	rx, err := modem.NewReceiver(modem.RxConfig{
		Order: csk.Order(h.Order), SymbolRate: h.SymbolRate, WhiteFraction: h.WhiteFraction,
		Code: r.cap.code, Triangle: cie.SRGBTriangle, Telemetry: telemetry.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	if r.sr.CalHit() {
		snap, err := packet.UnmarshalCalSnapshot(r.sr.Welcome.CalSnapshot)
		if err != nil {
			return nil, err
		}
		if err := rx.SeedCalibration(snap); err != nil {
			return nil, err
		}
	}
	var eras []int
	want := fnv.New64a()
	add := func(blocks []modem.Block) {
		for _, b := range blocks {
			eras = append(eras, b.Erasures)
			digestBlock(want, b.Recovered, b.Data)
		}
	}
	for i, f := range r.cap.frames {
		if _, shed := r.sr.Shed[uint64(i)]; !shed {
			add(rx.ProcessFrame(f))
		}
	}
	add(rx.Flush())
	got := fnv.New64a()
	for _, b := range r.sr.Blocks {
		digestBlock(got, b.Recovered, b.Data)
	}
	if got.Sum64() != want.Sum64() {
		return nil, fmt.Errorf("%w: session %d decoded differently over the wire than serially", errGate, r.id)
	}
	return eras, nil
}

var recoveredMark = [2][]byte{{0}, {1}}

func digestBlock(h interface{ Write([]byte) (int, error) }, recovered bool, data []byte) {
	h.Write(recoveredMark[btoi(recovered)])
	h.Write(data)
}

// histSketch is the difference of two snapshots of one histogram.
type histSketch struct {
	bounds []float64
	counts []int64
	sum    float64
}

func histDelta(a, b telemetry.HistogramStats) histSketch {
	h := histSketch{bounds: b.Bounds, counts: append([]int64(nil), b.BucketCounts...), sum: b.Sum - a.Sum}
	for i := range h.counts {
		if i < len(a.BucketCounts) {
			h.counts[i] -= a.BucketCounts[i]
		}
	}
	return h
}

func (h histSketch) plus(o histSketch) histSketch {
	if h.bounds == nil {
		h.bounds = o.bounds
	}
	out := histSketch{bounds: h.bounds, counts: make([]int64, max(len(h.counts), len(o.counts))), sum: h.sum + o.sum}
	for i := range out.counts {
		if i < len(h.counts) {
			out.counts[i] += h.counts[i]
		}
		if i < len(o.counts) {
			out.counts[i] += o.counts[i]
		}
	}
	return out
}

// quantile interpolates inside the containing bucket, as
// telemetry.Histogram.Quantile does.
func (h histSketch) quantile(q float64) float64 {
	var total int64
	for _, c := range h.counts {
		total += c
	}
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (target-cum)/float64(c)*(h.bounds[i]-lo)
		}
		cum += float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
