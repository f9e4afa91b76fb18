package ingest

import (
	"bufio"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"colorbars/internal/camera"
	"colorbars/internal/coding"
	"colorbars/internal/csk"
	"colorbars/internal/modem"
	"colorbars/internal/packet"
	"colorbars/internal/pipeline"
	"colorbars/internal/telemetry"
)

// Config parameterizes New. The zero value listens on an ephemeral
// port with one shard, defaulted queues, a 1024-entry 10-minute
// calibration cache, and no token-bucket limit (queue-depth shedding
// still applies — it is inherent to TrySubmit).
type Config struct {
	// Addr is the TCP listen address ("" or ":0" for ephemeral).
	Addr string
	// Shards is the number of pipeline.Pipeline instances sessions are
	// consistent-hashed across (by device id). Zero or negative means 1.
	Shards int
	// WorkersPerShard sizes each shard pipeline's Analyze pool (zero =
	// GOMAXPROCS, the pipeline default).
	WorkersPerShard int
	// QueueDepth / OutputDepth / StallTimeout pass through to each
	// shard's pipeline.Config.
	QueueDepth   int
	OutputDepth  int
	StallTimeout time.Duration
	// CacheSize / CacheTTL bound the calibration cache (zero =
	// 1024 entries / 10 minutes). CacheSize also bounds the per-device
	// rows kept for /debug/ingest.
	CacheSize int
	CacheTTL  time.Duration
	// FillRate is the service-wide admission token bucket's refill
	// rate in frames per second; Burst is its capacity (zero burst
	// means FillRate). FillRate <= 0 disables the bucket — frames are
	// then shed only on queue depth.
	FillRate float64
	Burst    float64
	// Telemetry receives the ingest.* counters and parents every
	// tenant's registry. Nil allocates a private root.
	Telemetry *telemetry.Registry
}

// Server is the multi-tenant decode ingest service. One Server owns a
// TCP listener, Config.Shards decode pipelines, the calibration
// cache, and the admission token bucket; every accepted connection is
// one device session. Close tears it all down.
type Server struct {
	cfg    Config
	tel    *telemetry.Registry
	ln     net.Listener
	ring   *ring
	shards []*pipeline.Pipeline
	cache  *calCache
	bucket *tokenBucket
	frames framePool

	sessions   *telemetry.Counter // ingest.sessions
	framesIn   *telemetry.Counter // ingest.frames_in
	admitted   *telemetry.Counter // ingest.frames_admitted
	shedTokens *telemetry.Counter // ingest.frames_shed_tokens
	shedQueue  *telemetry.Counter // ingest.frames_shed_queue
	blocksOut  *telemetry.Counter // ingest.blocks_out

	nextSession atomic.Uint64
	wg          sync.WaitGroup
	closed      atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	// tenants holds at most cache.cap rows, the most recently active
	// at the front of tenantLRU.
	tenants   map[string]*tenant
	tenantLRU list.List
}

// tenant is one device id's service-side accounting. Its registry is
// a child of the server's, so tenant counters roll up into the
// aggregate ingest.* numbers while staying separable on /debug/ingest.
// Rolling up happens at increment time, so evicting a row loses only
// the per-device breakdown, never a count from the totals.
type tenant struct {
	id         string
	elem       *list.Element // in Server.tenantLRU; nil once evicted (guarded by Server.mu)
	tel        *telemetry.Registry
	sessions   *telemetry.Counter
	framesIn   *telemetry.Counter
	admitted   *telemetry.Counter
	shed       *telemetry.Counter
	blocks     *telemetry.Counter
	calHits    *telemetry.Counter
	latencyUs  *telemetry.Histogram
	lastShard  atomic.Int64
	lastActive atomic.Int64 // registry-clock ns
}

// tokenBucket is the service-wide admission limiter. take is called
// from every connection's read loop, so it is internally locked; the
// clock is the telemetry registry's (injectable in tests).
type tokenBucket struct {
	rate  float64 // tokens per second
	burst float64
	now   func() int64

	mu     sync.Mutex
	tokens float64
	lastNs int64
}

func newTokenBucket(rate, burst float64, now func() int64) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = rate
	}
	return &tokenBucket{rate: rate, burst: burst, now: now, tokens: burst, lastNs: now()}
}

// take consumes one token if available. A nil bucket always admits.
func (b *tokenBucket) take() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.tokens += float64(now-b.lastNs) / 1e9 * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.lastNs = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// New builds the service and starts accepting connections. The
// returned server is live: dial Addr() and speak the wire protocol.
func New(cfg Config) (*Server, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	addr := cfg.Addr
	if addr == "" {
		addr = ":0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ingest: listen %s: %w", addr, err)
	}
	s := &Server{
		cfg:        cfg,
		tel:        tel,
		ln:         ln,
		ring:       newRing(cfg.Shards, 0),
		cache:      newCalCache(cfg.CacheSize, cfg.CacheTTL, tel),
		bucket:     newTokenBucket(cfg.FillRate, cfg.Burst, tel.Now),
		sessions:   tel.Counter("ingest.sessions"),
		framesIn:   tel.Counter("ingest.frames_in"),
		admitted:   tel.Counter("ingest.frames_admitted"),
		shedTokens: tel.Counter("ingest.frames_shed_tokens"),
		shedQueue:  tel.Counter("ingest.frames_shed_queue"),
		blocksOut:  tel.Counter("ingest.blocks_out"),
		conns:      map[net.Conn]struct{}{},
		tenants:    map[string]*tenant{},
	}
	s.shards = make([]*pipeline.Pipeline, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = pipeline.New(pipeline.Config{
			Workers:      cfg.WorkersPerShard,
			QueueDepth:   cfg.QueueDepth,
			OutputDepth:  cfg.OutputDepth,
			StallTimeout: cfg.StallTimeout,
			Telemetry:    tel,
		})
	}
	telemetry.RegisterDebugHandler("/debug/ingest", http.HandlerFunc(s.serveDebug))
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr reports the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Telemetry returns the server's registry (for tests and embedding).
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// CacheLen reports the calibration cache's live entry count.
func (s *Server) CacheLen() int { return s.cache.len() }

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// Close stops accepting, severs live connections, and tears the shard
// pipelines down. In-flight sessions end as if their connection
// dropped: decoded state is still cached, undelivered responses are
// lost. ctx bounds the pipeline drain; on expiry the pipelines abort.
func (s *Server) Close(ctx context.Context) error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	var err error
	for _, p := range s.shards {
		if e := p.Close(ctx); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// tenantFor returns (creating if needed) the device's tenant record,
// marking it active. A new row past the bound evicts the least
// recently active one; a live session of an evicted device keeps
// counting into its detached row, so the ingest.* totals stay exact.
func (s *Server) tenantFor(deviceID string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[deviceID]; ok {
		s.touchLocked(t)
		return t
	}
	if len(s.tenants) >= s.cache.cap {
		oldest := s.tenantLRU.Remove(s.tenantLRU.Back()).(*tenant)
		oldest.elem = nil
		delete(s.tenants, oldest.id)
	}
	child := s.tel.NewChild()
	t := &tenant{
		id:        deviceID,
		tel:       child,
		sessions:  child.Counter("ingest.tenant.sessions"),
		framesIn:  child.Counter("ingest.tenant.frames_in"),
		admitted:  child.Counter("ingest.tenant.frames_admitted"),
		shed:      child.Counter("ingest.tenant.frames_shed"),
		blocks:    child.Counter("ingest.tenant.blocks_out"),
		calHits:   child.Counter("ingest.tenant.cal_hits"),
		latencyUs: child.Histogram("ingest.tenant.latency_us", latencyUsBounds()),
	}
	t.elem = s.tenantLRU.PushFront(t)
	s.tenants[deviceID] = t
	s.touchLocked(t)
	return t
}

// touch marks a tenant active now.
func (s *Server) touch(t *tenant) {
	s.mu.Lock()
	s.touchLocked(t)
	s.mu.Unlock()
}

func (s *Server) touchLocked(t *tenant) {
	t.lastActive.Store(s.tel.Now())
	if t.elem != nil {
		s.tenantLRU.MoveToFront(t.elem)
	}
}

// framePool recycles FRAME decode targets across every connection, so
// the steady-state frame path reuses pixel storage instead of
// allocating a frame's worth of float64s per message.
type framePool struct{ p sync.Pool }

// decode parses a FRAME body into a pooled frame. The caller owns the
// frame until it hands it back with put.
func (fp *framePool) decode(body []byte) (seq uint64, f *camera.Frame, err error) {
	f, _ = fp.p.Get().(*camera.Frame)
	if f == nil {
		f = new(camera.Frame)
	}
	if _, seq, err = decodeFrameInto(body, f); err != nil {
		fp.p.Put(f)
		return 0, nil, err
	}
	return seq, f, nil
}

func (fp *framePool) put(f *camera.Frame) { fp.p.Put(f) }

// latencyUsBounds is telemetry's default 1-2-5 latency series scaled
// to microseconds. The defaults are denominated in seconds; observing
// microsecond values against them lands every sample in the overflow
// bucket and collapses the reported quantiles to the top bound.
func latencyUsBounds() []float64 {
	bounds := telemetry.DefaultLatencyBuckets()
	for i := range bounds {
		bounds[i] *= 1e6
	}
	return bounds
}

// session is one connection's server-side state.
type session struct {
	id     uint64
	hello  Hello
	ten    *tenant
	stream *pipeline.Stream
	rx     *modem.Receiver
	shard  int

	frames *framePool

	// admitted holds the frames submitted to the pipeline and not yet
	// decoded, oldest first. The pipeline decodes a stream's frames in
	// submit order and fires OnDecoded once for each, so the hook's
	// frame is always the head: the entry maps it back to the device's
	// wire sequence (which skips shed frames), and the frame returns to
	// the pool. Appended by the read loop, consumed by the decode
	// lane's hook; the mutex covers that handoff (and the outc
	// publication).
	mu       sync.Mutex
	admitted []admittedFrame
	outc     chan wireMsg

	stats Stats
}

// admittedFrame is one frame between its submit and its OnDecoded hook.
type admittedFrame struct {
	wireSeq uint64
	frame   *camera.Frame
}

// serveConn runs one device session from HELLO to disconnect.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)

	_, body, err := readMessage(br, nil, helloMsgs)
	if err != nil {
		return
	}
	hello, err := decodeHello(body)
	if err != nil {
		return
	}
	sess, welcome, err := s.openSession(hello)
	if err != nil {
		// An unbuildable link (bad order, unrealizable code) is a
		// protocol-level rejection; there is no error message type, so
		// the connection just closes.
		return
	}

	// The writer goroutine owns bw: ACK/SHED from the admission path
	// and decode hooks, BLOCKs from the forwarder, STATS at the end.
	// On a dead connection it keeps draining so the decode lane's
	// hooks never wedge.
	outc := make(chan wireMsg, 64)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		dead := false
		for m := range outc {
			if dead {
				continue
			}
			if err := writeMessage(bw, m.typ, m.body); err != nil {
				dead = true
				continue
			}
			// Flush when the channel is momentarily empty, so bursts
			// coalesce but the last response never lingers.
			if len(outc) == 0 {
				if bw.Flush() != nil {
					dead = true
				}
			}
		}
		if !dead {
			bw.Flush()
		}
	}()

	if err := s.runSession(br, outc, sess, welcome); err != nil {
		// Connection error mid-session: fall through to the same
		// teardown — the calibration still deserves caching.
		_ = err
	}
	close(outc)
	writerWG.Wait()
}

type wireMsg struct {
	typ  byte
	body []byte
}

// openSession validates the HELLO, builds the session's receiver
// (seeded from the calibration cache when possible) and registers its
// stream on the owning shard.
func (s *Server) openSession(h Hello) (*session, Welcome, error) {
	code, err := coding.Params{
		SymbolRate:   h.SymbolRate,
		FrameRate:    h.FrameRate,
		LossRatio:    h.LossRatio,
		Order:        csk.Order(h.Order),
		DataFraction: h.DataFraction,
	}.LinkCodeErasure()
	if err != nil {
		return nil, Welcome{}, err
	}
	rx, err := modem.NewReceiver(modem.RxConfig{
		Order:         csk.Order(h.Order),
		SymbolRate:    h.SymbolRate,
		WhiteFraction: h.WhiteFraction,
		Code:          code,
		Telemetry:     s.tel.NewChild(),
	})
	if err != nil {
		return nil, Welcome{}, err
	}
	ten := s.tenantFor(h.DeviceID)

	var calSnap []byte
	if raw, ok := s.cache.get(h.DeviceID); ok {
		if snap, err := packet.UnmarshalCalSnapshot(raw); err == nil {
			if rx.SeedCalibration(snap) == nil {
				calSnap = raw
				ten.calHits.Inc()
			}
		}
	}

	id := s.nextSession.Add(1)
	shard := s.ring.shard(h.DeviceID)
	sess := &session{id: id, hello: h, ten: ten, rx: rx, shard: shard, frames: &s.frames}
	stream, err := s.shards[shard].AddStreamHooked(
		fmt.Sprintf("%s/s%d", h.DeviceID, id), rx,
		pipeline.StreamHooks{OnDecoded: sess.onDecoded},
	)
	if err != nil {
		return nil, Welcome{}, err
	}
	sess.stream = stream
	s.sessions.Inc()
	ten.sessions.Inc()
	ten.lastShard.Store(int64(shard))
	return sess, Welcome{SessionID: id, Shard: shard, CalSnapshot: calSnap}, nil
}

// onDecoded runs on the session stream's decode goroutine after each
// admitted frame fully decodes; it is wired into the writer channel
// by runSession. Analyze and the sequential tail are both done with
// the frame by now, so it goes back to the pool.
func (sess *session) onDecoded(_ uint64, latencyNs int64) {
	sess.mu.Lock()
	head := sess.admitted[0]
	sess.admitted = slices.Delete(sess.admitted, 0, 1)
	outc := sess.outc
	sess.mu.Unlock()
	sess.frames.put(head.frame)
	us := latencyNs / 1e3
	if us < 0 {
		us = 0
	}
	sess.ten.latencyUs.Observe(float64(us))
	outc <- wireMsg{typ: msgAck, body: Ack{Seq: head.wireSeq, LatencyUs: uint32(us)}.encode()}
}

// runSession is the read loop: admit or shed frames until BYE or a
// connection error, then drain the decode lane, cache the session's
// calibration, and answer with STATS.
func (s *Server) runSession(br *bufio.Reader, outc chan wireMsg, sess *session, welcome Welcome) error {
	sess.mu.Lock()
	sess.outc = outc
	sess.mu.Unlock()
	outc <- wireMsg{typ: msgWelcome, body: welcome.encode()}

	// The forwarder relays decoded blocks as they emerge. It also
	// doubles as the drain barrier: Blocks() closes only after every
	// admitted frame decoded and the deframer flushed, so once this
	// goroutine exits the receiver is quiescent and its calibration
	// can be snapshotted race-free.
	var fwdWG sync.WaitGroup
	fwdWG.Add(1)
	go func() {
		defer fwdWG.Done()
		for b := range sess.stream.Blocks() {
			s.blocksOut.Inc()
			sess.ten.blocks.Inc()
			sess.stats.Blocks++
			if b.Recovered {
				sess.stats.BlocksOK++
			}
			outc <- wireMsg{typ: msgBlock, body: Block{Recovered: b.Recovered, Data: b.Data}.encode()}
		}
	}()

	// Every message body is read into one buffer the connection
	// reuses; a FRAME's pixels are decoded out of it before the next
	// read.
	var (
		readErr error
		buf     []byte
	)
loop:
	for {
		typ, body, err := readMessage(br, buf, sessionMsgs)
		if err != nil {
			readErr = err
			break
		}
		buf = body
		switch typ {
		case msgFrame:
			seq, frame, err := s.frames.decode(body)
			if err != nil {
				readErr = err
				break loop
			}
			s.framesIn.Inc()
			sess.ten.framesIn.Inc()
			sess.stats.FramesIn++
			s.touch(sess.ten)
			if !s.bucket.take() {
				s.frames.put(frame)
				s.shedTokens.Inc()
				sess.ten.shed.Inc()
				sess.stats.ShedTokens++
				outc <- wireMsg{typ: msgShed, body: Shed{Seq: seq, Reason: ShedTokens}.encode()}
				continue
			}
			// Record the entry before TrySubmit: the decode hook may
			// fire for this frame the instant the submit lands.
			sess.mu.Lock()
			sess.admitted = append(sess.admitted, admittedFrame{wireSeq: seq, frame: frame})
			sess.mu.Unlock()
			if err := sess.stream.TrySubmit(frame); err != nil {
				sess.mu.Lock()
				sess.admitted = sess.admitted[:len(sess.admitted)-1]
				sess.mu.Unlock()
				s.frames.put(frame)
				if errors.Is(err, pipeline.ErrQueueFull) {
					s.shedQueue.Inc()
					sess.ten.shed.Inc()
					sess.stats.ShedQueue++
					outc <- wireMsg{typ: msgShed, body: Shed{Seq: seq, Reason: ShedQueue}.encode()}
					continue
				}
				readErr = err
				break loop
			}
			s.admitted.Inc()
			sess.ten.admitted.Inc()
			sess.stats.Admitted++
		case msgBye:
			break loop
		}
	}

	// Drain: input closes, every admitted frame decodes (ACKs flow
	// through the hooks), the deframer flushes, Blocks() closes.
	sess.stream.CloseInput()
	fwdWG.Wait()

	// The receiver is quiescent now; preserve what it learned.
	if snap, ok := sess.rx.CalibrationSnapshot(); ok {
		if raw, err := snap.MarshalBinary(); err == nil {
			s.cache.put(sess.hello.DeviceID, raw)
			sess.stats.CalCached = true
		}
	}
	if readErr == nil {
		outc <- wireMsg{typ: msgStats, body: sess.stats.encode()}
	}
	if readErr != nil && (errors.Is(readErr, io.EOF) || errors.Is(readErr, net.ErrClosed)) {
		readErr = nil // a dropped connection is a normal session end
	}
	return readErr
}

// debugTenant is one device's row in the /debug/ingest document.
type debugTenant struct {
	Device     string  `json:"device"`
	Shard      int     `json:"shard"`
	Sessions   int64   `json:"sessions"`
	FramesIn   int64   `json:"frames_in"`
	Admitted   int64   `json:"frames_admitted"`
	Shed       int64   `json:"frames_shed"`
	Blocks     int64   `json:"blocks_out"`
	CalHits    int64   `json:"cal_hits"`
	P50Us      float64 `json:"latency_p50_us"`
	P99Us      float64 `json:"latency_p99_us"`
	LastActive int64   `json:"last_active_ns"`
}

// serveDebug renders the per-tenant ingest report as JSON.
func (s *Server) serveDebug(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	tenants := make(map[string]*tenant, len(s.tenants))
	for id, t := range s.tenants {
		tenants[id] = t
	}
	s.mu.Unlock()
	rows := make([]debugTenant, 0, len(tenants))
	for id, t := range tenants {
		rows = append(rows, debugTenant{
			Device:     id,
			Shard:      int(t.lastShard.Load()),
			Sessions:   t.sessions.Value(),
			FramesIn:   t.framesIn.Value(),
			Admitted:   t.admitted.Value(),
			Shed:       t.shed.Value(),
			Blocks:     t.blocks.Value(),
			CalHits:    t.calHits.Value(),
			P50Us:      t.latencyUs.Quantile(0.5),
			P99Us:      t.latencyUs.Quantile(0.99),
			LastActive: t.lastActive.Load(),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Device < rows[j].Device })
	doc := struct {
		Shards     int           `json:"shards"`
		Sessions   int64         `json:"sessions"`
		FramesIn   int64         `json:"frames_in"`
		Admitted   int64         `json:"frames_admitted"`
		ShedTokens int64         `json:"frames_shed_tokens"`
		ShedQueue  int64         `json:"frames_shed_queue"`
		BlocksOut  int64         `json:"blocks_out"`
		CacheLen   int           `json:"cal_cache_len"`
		Tenants    []debugTenant `json:"tenants"`
	}{
		Shards:     len(s.shards),
		Sessions:   s.sessions.Value(),
		FramesIn:   s.framesIn.Value(),
		Admitted:   s.admitted.Value(),
		ShedTokens: s.shedTokens.Value(),
		ShedQueue:  s.shedQueue.Value(),
		BlocksOut:  s.blocksOut.Value(),
		CacheLen:   s.cache.len(),
		Tenants:    rows,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}
