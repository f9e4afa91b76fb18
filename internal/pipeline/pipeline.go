// Package pipeline runs the receiver's per-frame front end on a
// shared worker pool while keeping the sequential tail — CIELab
// classification against calibration references, deframing, RS
// decoding — in strict capture order, so decoded Block output is
// byte-identical to calling Receiver.ProcessFrame on the same frames.
//
// The split follows the data dependencies of the decode path. Strip
// extraction, band segmentation, grid-phase fitting and the
// OFF-threshold fit read only the frame and the immutable link
// configuration (modem.Receiver.Analyze); classification depends on
// color references that calibration packets in *earlier* frames
// update, and deframing/decoding consume symbols in order
// (modem.Receiver.ProcessAnalysis). So the pipeline fans Analyze out
// to N workers and funnels the results through a per-stream reorder
// buffer into a single decoder goroutine.
//
// One Pipeline serves any number of independent LED streams: each
// stream owns one Receiver and one ordered decode lane, all lanes
// share the worker pool.
//
//	Submit ─▶ [in queue] ─feeder─▶ [jobs] ─▶ workers ×N ─▶ [done]
//	                                                         │
//	                  decoder: reorder by seq ─▶ ProcessAnalysis ─▶ [out]
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"colorbars/internal/camera"
	"colorbars/internal/linkstats"
	"colorbars/internal/modem"
	"colorbars/internal/telemetry"
)

// OverloadPolicy selects what Submit does when a stream's input queue
// is full.
type OverloadPolicy int

const (
	// Backpressure blocks Submit until queue space frees up (or its
	// context is done). Decoded output is identical to the serial path.
	Backpressure OverloadPolicy = iota
	// DropOldest discards the oldest queued frame to admit the new one,
	// bounding latency for live capture at the cost of frame loss. The
	// pipeline.frames_dropped counter records every discard. Dropped
	// frames look like inter-frame gaps to the deframer (the same
	// erasure mechanism rolling-shutter gaps use), so decoding degrades
	// instead of derailing.
	DropOldest OverloadPolicy = iota
)

// Config parameterizes New. The zero value is usable: GOMAXPROCS
// workers, depth-8 queues, backpressure, no telemetry.
type Config struct {
	// Workers is the size of the shared Analyze pool. Zero or negative
	// means GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds each stream's input queue (frames admitted but
	// not yet analyzed). Zero or negative means 8.
	QueueDepth int
	// OutputDepth bounds each stream's decoded-block channel. Zero or
	// negative means 16. The consumer must drain Blocks(); a full
	// output channel stalls that stream's decode lane (and, through
	// the queues, Submit).
	OutputDepth int
	// Overload selects the full-queue policy for Submit.
	Overload OverloadPolicy
	// StallTimeout arms the stream watchdog: a stream with work
	// pending whose decode lane makes no progress for this long is
	// recycled — its input closes, its lane goroutines exit, and its
	// Blocks() channel closes — so one wedged consumer (or a stuck
	// upstream) cannot deadlock Close or pin pool resources forever.
	// Each recycle increments pipeline.streams_recycled. Zero disables
	// the watchdog.
	StallTimeout time.Duration
	// Telemetry receives pipeline metrics: pipeline.frames_in,
	// pipeline.frames_dropped, pipeline.blocks_out counters; a
	// pipeline.workers_busy gauge; pipeline.queue_depth.<stream>
	// gauges; and a pipeline.frame_latency histogram of
	// submit-to-decode seconds. Nil disables all of it.
	Telemetry *telemetry.Registry

	// analyzeHook, when set, replaces Receiver.Analyze in the workers.
	// Tests use it to stall the pool and provoke overload or shutdown
	// races; nil means the real thing.
	analyzeHook func(r *modem.Receiver, f *camera.Frame) *modem.Analysis
}

// ErrClosed is returned by Submit after CloseInput or Close.
var ErrClosed = errors.New("pipeline: stream closed")

// ErrQueueFull is returned by TrySubmit when the stream's input queue
// has no space. The frame was not admitted; the caller decides whether
// to retry, drop, or shed.
var ErrQueueFull = errors.New("pipeline: stream queue full")

// job is one frame traveling through the worker pool.
type job struct {
	s       *Stream
	f       *camera.Frame
	seq     uint64
	tSubmit int64 // registry-clock ns when admitted, for frame_latency
}

// result is an analyzed frame waiting for its turn in the decode lane.
type result struct {
	a       *modem.Analysis
	seq     uint64
	tSubmit int64
}

// Pipeline is a shared worker pool plus per-stream ordered decode
// lanes. Create with New, add streams with AddStream, then Submit
// frames and drain Blocks(). Close (or Abort) before discarding.
type Pipeline struct {
	cfg    Config
	tel    *telemetry.Registry
	jobs   chan job
	ctx    context.Context
	cancel context.CancelFunc

	workerWG   sync.WaitGroup // worker goroutines
	streamWG   sync.WaitGroup // feeder + decoder goroutines
	watchdogWG sync.WaitGroup // watchdog goroutine (if armed)
	jobsOnce   sync.Once      // guards close(jobs) across Close/Abort
	busy       *telemetry.Gauge
	framesIn   *telemetry.Counter
	dropped    *telemetry.Counter
	blocksOut  *telemetry.Counter
	recycled   *telemetry.Counter
	latency    *telemetry.Histogram

	mu      sync.Mutex
	streams map[string]*Stream
	// gens counts recycles per stream id: a recycled id may be
	// re-registered, and its replacement starts at the next generation.
	gens   map[string]uint64
	closed bool
}

// Stream is one LED stream's lane through the pipeline: a bounded
// input queue, a share of the worker pool, and an ordered decode lane
// feeding Blocks().
type Stream struct {
	p    *Pipeline
	id   string
	rx   *modem.Receiver
	in   chan job         // Submit → feeder
	done chan result      // workers → decoder (unordered)
	out  chan modem.Block // decoder → consumer

	// ctx is the stream's own lifetime, a child of the pipeline's: the
	// watchdog cancels it to recycle one wedged stream without
	// touching its siblings.
	ctx    context.Context
	cancel context.CancelFunc

	// gen is this stream's recycle generation under its id: 0 for a
	// first registration, n after the id was recycled n times.
	gen uint64

	// hooks holds the stream's optional callbacks (AddStreamHooked).
	hooks StreamHooks

	depth *telemetry.Gauge

	// submit-side state, guarded by mu: seq would race between
	// concurrent Submits, closed gates Submit vs CloseInput.
	mu        sync.Mutex
	closed    bool
	submitted uint64 // frames admitted to in

	// feeder-side state: frames handed to the pool so far, and the
	// total the decoder must wait for. fedAll closes once finalSeq is
	// valid (after CloseInput drained the queue). fed is atomic only
	// so the watchdog may read it.
	fed      atomic.Uint64
	finalSeq uint64
	fedAll   chan struct{}

	// Watchdog progress signals. decoded counts frames fully through
	// ProcessAnalysis *and* their block emits (incremented after, so a
	// lane blocked mid-emit still reads as having work pending);
	// emitted counts delivered blocks; flushing marks the final
	// deframer flush; finished marks the decode goroutine's exit.
	decoded   atomic.Uint64
	emitted   atomic.Uint64
	flushing  atomic.Bool
	finished  atomic.Bool
	recycling atomic.Bool

	// Watchdog-goroutine-private stall accounting.
	lastProgress uint64
	stalledFor   time.Duration
}

// New builds a pipeline and starts its worker pool.
func New(cfg Config) *Pipeline {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.OutputDepth <= 0 {
		cfg.OutputDepth = 16
	}
	if cfg.analyzeHook == nil {
		cfg.analyzeHook = func(r *modem.Receiver, f *camera.Frame) *modem.Analysis {
			return r.Analyze(f)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pipeline{
		cfg:       cfg,
		tel:       cfg.Telemetry,
		jobs:      make(chan job),
		ctx:       ctx,
		cancel:    cancel,
		streams:   map[string]*Stream{},
		gens:      map[string]uint64{},
		busy:      cfg.Telemetry.Gauge("pipeline.workers_busy"),
		framesIn:  cfg.Telemetry.Counter("pipeline.frames_in"),
		dropped:   cfg.Telemetry.Counter("pipeline.frames_dropped"),
		blocksOut: cfg.Telemetry.Counter("pipeline.blocks_out"),
		recycled:  cfg.Telemetry.Counter("pipeline.streams_recycled"),
		latency:   cfg.Telemetry.Histogram("pipeline.frame_latency", nil),
	}
	p.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.worker()
	}
	if cfg.StallTimeout > 0 {
		p.watchdogWG.Add(1)
		go p.watchdog(cfg.StallTimeout)
	}
	return p
}

// watchdog periodically samples every stream's progress signals and
// recycles lanes that sit on pending work without advancing for a
// full StallTimeout. It exits when the pipeline context is cancelled
// (Close's final step, or Abort).
func (p *Pipeline) watchdog(timeout time.Duration) {
	defer p.watchdogWG.Done()
	interval := timeout / 4
	if interval <= 0 {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-tick.C:
			p.mu.Lock()
			streams := make([]*Stream, 0, len(p.streams))
			for _, s := range p.streams {
				streams = append(streams, s)
			}
			p.mu.Unlock()
			for _, s := range streams {
				s.checkStall(interval, timeout)
			}
		}
	}
}

// checkStall is one watchdog sample of this stream: progress is the
// decoded+emitted sum, work is pending whenever fed or queued frames
// outnumber decoded ones (or the final flush is underway). Only the
// watchdog goroutine touches the stall accumulator.
func (s *Stream) checkStall(elapsed, timeout time.Duration) {
	if s.finished.Load() || s.recycling.Load() {
		return
	}
	decoded := s.decoded.Load()
	progress := decoded + s.emitted.Load()
	hasWork := s.fed.Load()+uint64(len(s.in)) > decoded || s.flushing.Load()
	if progress != s.lastProgress || !hasWork {
		s.lastProgress = progress
		s.stalledFor = 0
		return
	}
	s.stalledFor += elapsed
	if s.stalledFor >= timeout {
		s.recycle()
	}
}

// recycle tears down one wedged stream: input closes (Submit returns
// ErrClosed), the lane goroutines exit at their next channel
// operation, undelivered output is dropped, and Blocks() closes. The
// rest of the pipeline is untouched, and the stream's id is released
// at the next recycle generation so a replacement can re-register.
func (s *Stream) recycle() {
	if !s.recycling.CompareAndSwap(false, true) {
		return
	}
	s.p.recycled.Inc()
	// Cancel before CloseInput: a Submit blocked in backpressure holds
	// s.mu until the cancellation releases it, and CloseInput needs
	// that mutex.
	s.cancel()
	s.CloseInput()
	s.p.mu.Lock()
	if s.p.streams[s.id] == s {
		delete(s.p.streams, s.id)
	}
	s.p.gens[s.id] = s.gen + 1
	s.p.mu.Unlock()
}

// Workers reports the pool size.
func (p *Pipeline) Workers() int { return p.cfg.Workers }

// StreamHooks carries a stream's optional callbacks. The zero value
// disables them all.
type StreamHooks struct {
	// OnDecoded fires on the stream's decode goroutine after frame seq
	// has fully decoded — its blocks delivered to Blocks() — with the
	// submit-to-decode latency in registry-clock nanoseconds. It runs
	// inline in the decode lane, so a slow callback stalls that
	// stream's decoding exactly like a slow Blocks() consumer; keep it
	// to a channel send or a counter bump. It is never called for the
	// final deframer flush (which has no originating frame).
	OnDecoded func(seq uint64, latencyNs int64)
}

// AddStream registers a stream decoding through rx and returns its
// lane. The id names the stream in telemetry
// (pipeline.queue_depth.<id>) and must be unique among live streams;
// an id whose stream the watchdog recycled may be re-registered, and
// the replacement starts at the next recycle generation (see
// Generation). The receiver must not be used outside the pipeline
// afterwards.
func (p *Pipeline) AddStream(id string, rx *modem.Receiver) (*Stream, error) {
	return p.AddStreamHooked(id, rx, StreamHooks{})
}

// AddStreamHooked is AddStream with per-stream callbacks attached
// (the ingest service uses OnDecoded for per-frame acknowledgements
// and latency accounting).
func (p *Pipeline) AddStreamHooked(id string, rx *modem.Receiver, hooks StreamHooks) (*Stream, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	if _, dup := p.streams[id]; dup {
		return nil, fmt.Errorf("pipeline: duplicate stream %q", id)
	}
	s := &Stream{
		p:      p,
		id:     id,
		rx:     rx,
		gen:    p.gens[id],
		hooks:  hooks,
		in:     make(chan job, p.cfg.QueueDepth),
		done:   make(chan result, p.cfg.QueueDepth+p.cfg.Workers),
		out:    make(chan modem.Block, p.cfg.OutputDepth),
		depth:  p.tel.Gauge("pipeline.queue_depth." + id),
		fedAll: make(chan struct{}),
	}
	s.ctx, s.cancel = context.WithCancel(p.ctx)
	p.streams[id] = s
	p.streamWG.Add(2)
	go s.feed()
	go s.decode()
	return s, nil
}

// worker pulls analysis jobs from every stream and runs the
// goroutine-safe front end.
func (p *Pipeline) worker() {
	defer p.workerWG.Done()
	for {
		select {
		case <-p.ctx.Done():
			return
		case j, ok := <-p.jobs:
			if !ok {
				return
			}
			p.busy.Add(1)
			a := p.cfg.analyzeHook(j.s.rx, j.f)
			p.busy.Add(-1)
			select {
			case j.s.done <- result{a: a, seq: j.seq, tSubmit: j.tSubmit}:
			case <-p.ctx.Done():
				return
			}
		}
	}
}

// Submit hands one captured frame to the stream. Frames must be
// submitted in capture order (concurrent Submits on one stream would
// make "order" meaningless, but Submit itself is safe to call from
// multiple goroutines). Under Backpressure a full queue blocks until
// space frees, ctx is done, or the stream closes; under DropOldest it
// discards the oldest queued frame and never blocks on queue space.
func (s *Stream) Submit(ctx context.Context, f *camera.Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	j := job{s: s, f: f, tSubmit: s.p.tel.Now()}
	for {
		select {
		case s.in <- j:
			s.submitted++
			s.p.framesIn.Inc()
			s.depth.Set(float64(len(s.in)))
			return nil
		default:
		}
		if s.p.cfg.Overload == DropOldest {
			select {
			case old := <-s.in:
				_ = old
				s.p.dropped.Inc()
				continue // retry; another Submit cannot race us (mu held)
			default:
				continue // feeder drained the queue between selects
			}
		}
		// Backpressure: wait for space without spinning.
		select {
		case s.in <- j:
			s.submitted++
			s.p.framesIn.Inc()
			s.depth.Set(float64(len(s.in)))
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-s.ctx.Done():
			return ErrClosed
		}
	}
}

// TrySubmit is Submit without blocking: a full input queue returns
// ErrQueueFull immediately, regardless of the pipeline's overload
// policy, and the frame is not admitted. Admission-control layers
// (the ingest service's load shedding) use it to turn queue pressure
// into an explicit signal instead of latency.
func (s *Stream) TrySubmit(f *camera.Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	select {
	case s.in <- job{s: s, f: f, tSubmit: s.p.tel.Now()}:
		s.submitted++
		s.p.framesIn.Inc()
		s.depth.Set(float64(len(s.in)))
		return nil
	default:
		return ErrQueueFull
	}
}

// QueueDepth reports how many admitted frames are waiting in the
// stream's input queue right now (capacity is Config.QueueDepth).
// Racy by nature — a snapshot for shed decisions and telemetry.
func (s *Stream) QueueDepth() int { return len(s.in) }

// feed moves frames from the stream queue into the shared pool,
// stamping each with its decode sequence number. Sequence numbers are
// assigned here — after any DropOldest discards — so the decoder's
// expected sequence is always contiguous.
func (s *Stream) feed() {
	defer s.p.streamWG.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j, ok := <-s.in:
			if !ok {
				// CloseInput ran and the queue is drained: everything
				// admitted has been fed. Publish the total and let the
				// decoder finish.
				s.finalSeq = s.fed.Load()
				close(s.fedAll)
				return
			}
			s.depth.Set(float64(len(s.in)))
			j.seq = s.fed.Load()
			s.fed.Add(1)
			select {
			case s.p.jobs <- j:
			case <-s.ctx.Done():
				return
			}
		}
	}
}

// decode reorders analyzed frames into capture order and runs the
// sequential tail. It owns the stream's Receiver and the out channel.
func (s *Stream) decode() {
	defer s.p.streamWG.Done()
	defer s.finished.Store(true)
	defer close(s.out)
	pending := map[uint64]result{}
	var next uint64
	var total uint64
	haveTotal := false
	for {
		if haveTotal && next >= total {
			// Every fed frame decoded: flush deframer remnants.
			s.flushing.Store(true)
			for _, b := range s.rx.Flush() {
				if !s.emit(b) {
					return
				}
			}
			return
		}
		select {
		case <-s.ctx.Done():
			return
		case <-s.fedAll:
			total, haveTotal = s.finalSeq, true
			s.fedAll = nil // a nil channel never fires again
		case r := <-s.done:
			pending[r.seq] = r
			for {
				r, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				for _, b := range s.rx.ProcessAnalysis(r.a) {
					if !s.emit(b) {
						return
					}
				}
				// Count the frame only once its blocks are delivered,
				// so a lane blocked mid-emit still shows pending work
				// to the watchdog.
				s.decoded.Add(1)
				lat := s.p.tel.Now() - r.tSubmit
				s.p.latency.Observe(float64(lat) / 1e9)
				if s.hooks.OnDecoded != nil {
					s.hooks.OnDecoded(r.seq, lat)
				}
			}
		}
	}
}

// emit delivers one decoded block, reporting false on Abort or
// recycle.
func (s *Stream) emit(b modem.Block) bool {
	select {
	case s.out <- b:
		s.p.blocksOut.Inc()
		s.emitted.Add(1)
		return true
	case <-s.ctx.Done():
		return false
	}
}

// Blocks returns the stream's decoded output in strict capture order.
// The channel closes after CloseInput once every admitted frame has
// been decoded and the deframer flushed — or immediately on Abort.
// Consumers must drain it; an undrained stream eventually stalls.
func (s *Stream) Blocks() <-chan modem.Block { return s.out }

// Stats exposes the stream receiver's counters (safe once the stream
// is drained).
func (s *Stream) Stats() modem.RxStats { return s.rx.Stats() }

// Telemetry returns the stream receiver's metric registry (for
// attaching trace sinks or reading per-stage histograms).
func (s *Stream) Telemetry() *telemetry.Registry { return s.rx.Telemetry() }

// Health returns the stream's current link-quality snapshot. It is
// safe to call while the stream is decoding — the collector is
// internally synchronized — and returns a no-traffic snapshot when
// the stream's receiver has no linkstats collector attached.
func (s *Stream) Health() linkstats.LinkHealth { return s.rx.LinkStats().Health() }

// Generation reports the stream's recycle generation: 0 for a first
// registration of its id, n when the id has been recycled n times
// before this stream registered. Per-stream seeds for stochastic
// layers wrapped around a stream (fault injection above all) must
// incorporate the generation — a replacement stream that reuses the
// original seed replays the original random phase from zero, which is
// exactly the nondeterminism recycling must not introduce.
func (s *Stream) Generation() uint64 { return s.gen }

// Submitted reports how many frames Submit has admitted (including
// ones DropOldest later discarded).
func (s *Stream) Submitted() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submitted
}

// CloseInput marks the end of the stream's input. Subsequent Submits
// return ErrClosed; frames already admitted still decode, then
// Blocks() closes. Safe to call more than once.
func (s *Stream) CloseInput() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.in)
}

// Drain closes the stream's input and waits for Blocks() to close,
// discarding any undelivered blocks. It unsticks consumers that want
// completion without caring about remaining output.
func (s *Stream) Drain(ctx context.Context) error {
	s.CloseInput()
	// An already-cancelled context means the caller wants out now, not
	// after a flush: the select below would otherwise pick arbitrarily
	// between a ready block and the done context.
	if err := ctx.Err(); err != nil {
		return err
	}
	for {
		select {
		case _, ok := <-s.out:
			if !ok {
				return nil
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Close shuts the pipeline down gracefully: every stream's input
// closes, in-flight frames finish decoding, Blocks() channels close,
// then the worker pool exits. Blocks() consumers must keep draining
// during Close or it cannot complete; ctx bounds the wait, and a
// context error aborts the pipeline hard (dropping in-flight frames)
// before returning.
func (p *Pipeline) Close(ctx context.Context) error {
	// An already-cancelled context skips the graceful flush entirely:
	// abort hard and return promptly, exactly as if the deadline had
	// expired mid-flush.
	if err := ctx.Err(); err != nil {
		p.Abort()
		return err
	}
	p.mu.Lock()
	p.closed = true
	streams := make([]*Stream, 0, len(p.streams))
	for _, s := range p.streams {
		streams = append(streams, s)
	}
	p.mu.Unlock()
	for _, s := range streams {
		s.CloseInput()
	}
	done := make(chan struct{})
	go func() {
		p.streamWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		p.Abort()
		<-done
		return ctx.Err()
	}
	p.cancel()
	p.watchdogWG.Wait()
	p.jobsOnce.Do(func() { close(p.jobs) })
	p.workerWG.Wait()
	return nil
}

// Abort tears the pipeline down immediately: feeders and decode lanes
// exit at the next channel operation, in-flight frames are dropped,
// Blocks() channels close without flushing. Workers already inside an
// Analyze call are not interrupted — Abort waits for each to finish
// its current frame and exit, so no pool goroutine outlives the call
// (mirroring Close's teardown tail: cancel, close the job channel,
// join the worker pool). Safe to call more than once, and after
// Close.
func (p *Pipeline) Abort() {
	p.mu.Lock()
	p.closed = true
	for _, s := range p.streams {
		s.CloseInput()
	}
	p.mu.Unlock()
	p.cancel()
	p.streamWG.Wait()
	p.watchdogWG.Wait()
	p.jobsOnce.Do(func() { close(p.jobs) })
	p.workerWG.Wait()
}

// DecodeAll decodes frames, in capture order, through a new pipeline
// with one stream and returns the stream's blocks in order. id names
// the stream, and so its gauges in cfg.Telemetry. The pipeline is shut
// down before DecodeAll returns.
func DecodeAll(cfg Config, id string, rx *modem.Receiver, frames []*camera.Frame) ([]modem.Block, error) {
	p := New(cfg)
	s, err := p.AddStream(id, rx)
	if err != nil {
		p.Abort()
		return nil, err
	}
	collected := make(chan []modem.Block, 1)
	go func() {
		var blocks []modem.Block
		for b := range s.Blocks() {
			blocks = append(blocks, b)
		}
		collected <- blocks
	}()
	for _, f := range frames {
		if err := s.Submit(context.Background(), f); err != nil {
			p.Abort()
			return nil, err
		}
	}
	if err := p.Close(context.Background()); err != nil {
		return nil, err
	}
	return <-collected, nil
}
