package ingest

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"colorbars/internal/camera"
	"colorbars/internal/coding"
	"colorbars/internal/csk"
	"colorbars/internal/modem"
	"colorbars/internal/packet"
	"colorbars/internal/rs"
	"colorbars/internal/telemetry"
)

// testHello builds the HELLO for captureFrames' link on prof.
func testHello(deviceID string, prof camera.Profile) Hello {
	return Hello{
		DeviceID:      deviceID,
		Order:         int(csk.CSK8),
		SymbolRate:    2000,
		WhiteFraction: 0.2,
		DataFraction:  0.8,
		FrameRate:     prof.FrameRate,
		LossRatio:     prof.LossRatio(),
	}
}

// sharedCapture caches one capture per profile name across the
// package's end-to-end tests (simulated capture dominates test time).
var (
	captureOnce sync.Mutex
	captures    = map[string][]*camera.Frame{}
)

func sharedFrames(t testing.TB, prof camera.Profile, seconds float64) []*camera.Frame {
	captureOnce.Lock()
	defer captureOnce.Unlock()
	key := fmt.Sprintf("%s/%.1f", prof.Name, seconds)
	if f, ok := captures[key]; ok {
		return f
	}
	f := captureFrames(t, prof, 11, seconds)
	captures[key] = f
	return f
}

// blockDigest folds a decoded block stream into one FNV-1a digest
// (recovered flag + payload bytes, in order).
func blockDigest(blocks []Block) uint64 {
	h := fnv.New64a()
	for _, b := range blocks {
		if b.Recovered {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
		h.Write(b.Data)
	}
	return h.Sum64()
}

// serialReference decodes the admitted frames on a fresh in-process
// receiver — seeded exactly as the server's was when seedSnap is
// non-nil — and returns the digest of its block stream. This is the
// ground truth the wire path must match byte for byte.
func serialReference(t testing.TB, h Hello, admitted []*camera.Frame, seedSnap []byte) uint64 {
	t.Helper()
	code, err := coding.Params{
		SymbolRate:   h.SymbolRate,
		FrameRate:    h.FrameRate,
		LossRatio:    h.LossRatio,
		Order:        csk.Order(h.Order),
		DataFraction: h.DataFraction,
	}.LinkCodeErasure()
	if err != nil {
		t.Fatal(err)
	}
	rx, err := modem.NewReceiver(modem.RxConfig{
		Order: csk.Order(h.Order), SymbolRate: h.SymbolRate,
		WhiteFraction: h.WhiteFraction, Code: code,
		Telemetry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if seedSnap != nil {
		snap, err := packet.UnmarshalCalSnapshot(seedSnap)
		if err != nil {
			t.Fatal(err)
		}
		if err := rx.SeedCalibration(snap); err != nil {
			t.Fatal(err)
		}
	}
	var blocks []Block
	emit := func(bs []modem.Block) {
		for _, b := range bs {
			blocks = append(blocks, Block{Recovered: b.Recovered, Data: append([]byte(nil), b.Data...)})
		}
	}
	for _, f := range admitted {
		emit(rx.ProcessFrame(f))
	}
	emit(rx.Flush())
	return blockDigest(blocks)
}

// admittedOf filters a session's frames down to the ones the server
// admitted (every frame not named in a SHED response), in order.
func admittedOf(frames []*camera.Frame, res *SessionResult) []*camera.Frame {
	admitted := make([]*camera.Frame, 0, len(frames))
	for i, f := range frames {
		if _, shed := res.Shed[uint64(i)]; !shed {
			admitted = append(admitted, f)
		}
	}
	return admitted
}

// verifySession checks a session result's internal consistency and
// its digest against the serial reference.
func verifySession(t *testing.T, h Hello, frames []*camera.Frame, res *SessionResult) {
	t.Helper()
	if got, want := len(res.AckLatencyUs)+len(res.Shed), len(frames); got != want {
		t.Errorf("%s: %d acks + %d sheds != %d frames sent",
			h.DeviceID, len(res.AckLatencyUs), len(res.Shed), want)
	}
	if res.Stats.FramesIn != uint64(len(frames)) {
		t.Errorf("%s: server saw %d frames, sent %d", h.DeviceID, res.Stats.FramesIn, len(frames))
	}
	if res.Stats.Admitted != uint64(len(res.AckLatencyUs)) {
		t.Errorf("%s: admitted %d != acked %d", h.DeviceID, res.Stats.Admitted, len(res.AckLatencyUs))
	}
	if res.Stats.Blocks != uint64(len(res.Blocks)) {
		t.Errorf("%s: stats claim %d blocks, received %d", h.DeviceID, res.Stats.Blocks, len(res.Blocks))
	}
	want := serialReference(t, h, admittedOf(frames, res), res.Welcome.CalSnapshot)
	if got := blockDigest(res.Blocks); got != want {
		t.Errorf("%s: wire decode digest %016x != serial %016x (admitted %d/%d frames)",
			h.DeviceID, got, want, len(res.AckLatencyUs), len(frames))
	}
}

// TestServerSessionMatchesSerial: one unconstrained session's block
// stream is byte-identical to decoding the same frames in-process,
// and every frame is acknowledged with a positive latency.
func TestServerSessionMatchesSerial(t *testing.T) {
	prof := camera.Nexus5()
	frames := sharedFrames(t, prof, 2)
	// The queue must out-depth the whole capture: "unconstrained" has
	// to hold even when a loaded host stalls the decode lane long
	// enough for the client to race the entire frame stream in.
	srv, err := New(Config{Shards: 2, QueueDepth: len(frames) + 1, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	h := testHello("nexus5-serial", prof)
	res, err := RunSession(srv.Addr().String(), h, frames, prof.QuantBits)
	if err != nil {
		t.Fatal(err)
	}
	if res.CalHit() {
		t.Error("first session claims a calibration cache hit")
	}
	if len(res.Shed) != 0 {
		t.Errorf("unconstrained server shed %d frames", len(res.Shed))
	}
	if res.Stats.BlocksOK == 0 {
		t.Error("session recovered no blocks")
	}
	if !res.Stats.CalCached {
		t.Error("session ended without caching its calibration")
	}
	verifySession(t, h, frames, res)
}

// TestServerReconnectCalHit is the cache's reason to exist end to
// end: the second session of the same device is seeded (WELCOME
// carries the snapshot, ingest.cal_cache_hits increments, the
// receiver's rx.calibration_seeded fires) and its decode still
// matches a serial reference seeded identically. A different device
// id gets no hit — calibration never crosses tenants.
func TestServerReconnectCalHit(t *testing.T) {
	tel := telemetry.NewRegistry()
	srv, err := New(Config{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	prof := camera.Nexus5()
	frames := sharedFrames(t, prof, 2)
	h := testHello("nexus5-reconnect", prof)

	first, err := RunSession(srv.Addr().String(), h, frames, prof.QuantBits)
	if err != nil {
		t.Fatal(err)
	}
	if first.CalHit() || !first.Stats.CalCached {
		t.Fatalf("first session: calHit=%v calCached=%v, want false/true",
			first.CalHit(), first.Stats.CalCached)
	}

	second, err := RunSession(srv.Addr().String(), h, frames, prof.QuantBits)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CalHit() {
		t.Fatal("reconnect was not served from the calibration cache")
	}
	verifySession(t, h, frames, second)

	// The cached snapshot round-trips the packet serialization, and it
	// carries the receiver's learned equalizer state — the reconnecting
	// session starts with a warm equalizer, not just warm references.
	snap2, err := packet.UnmarshalCalSnapshot(second.Welcome.CalSnapshot)
	if err != nil {
		t.Errorf("WELCOME snapshot does not parse: %v", err)
	} else if len(snap2.Equalizer) == 0 {
		t.Error("cached calibration snapshot carries no equalizer state")
	}

	// A different tenant never sees the cached calibration.
	other, err := RunSession(srv.Addr().String(), testHello("nexus5-stranger", prof), frames, prof.QuantBits)
	if err != nil {
		t.Fatal(err)
	}
	if other.CalHit() {
		t.Error("a different device id was served another tenant's calibration")
	}

	snap := tel.Snapshot()
	if snap.Counters["ingest.cal_cache_hits"] != 1 {
		t.Errorf("cal_cache_hits = %d, want 1", snap.Counters["ingest.cal_cache_hits"])
	}
	if snap.Counters["rx.calibration_seeded"] != 1 {
		t.Errorf("rx.calibration_seeded = %d, want 1", snap.Counters["rx.calibration_seeded"])
	}
}

// TestServerShedsUnderTokenStarvation: with a near-empty token
// bucket, most frames get explicit SHED(tokens) responses — and the
// decode of what *was* admitted still matches the serial reference
// over exactly those frames. Shedding degrades, never corrupts.
func TestServerShedsUnderTokenStarvation(t *testing.T) {
	tel := telemetry.NewRegistry()
	prof := camera.Nexus5()
	frames := sharedFrames(t, prof, 2)
	// Out-depth the capture so every shed is attributable to the
	// bucket, not to a decode lane stalled by a loaded host.
	srv, err := New(Config{FillRate: 10, Burst: 3, QueueDepth: len(frames) + 1, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	h := testHello("nexus5-starved", prof)
	res, err := RunSession(srv.Addr().String(), h, frames, prof.QuantBits)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shed) == 0 {
		t.Fatal("starved bucket shed nothing")
	}
	if len(res.AckLatencyUs) == 0 {
		t.Fatal("burst allowance admitted nothing")
	}
	for seq, reason := range res.Shed {
		if reason != ShedTokens {
			t.Errorf("frame %d shed with reason %d, want ShedTokens", seq, reason)
		}
	}
	if res.Stats.ShedTokens != uint64(len(res.Shed)) {
		t.Errorf("stats.ShedTokens = %d, client saw %d", res.Stats.ShedTokens, len(res.Shed))
	}
	verifySession(t, h, frames, res)
	if tel.Snapshot().Counters["ingest.frames_shed_tokens"] == 0 {
		t.Error("ingest.frames_shed_tokens never incremented")
	}
}

// TestServerShedsOnQueueDepth: a depth-1 queue on a slow shard forces
// queue-full sheds under a fast submitter; the admitted subset still
// decodes identically to serial.
func TestServerShedsOnQueueDepth(t *testing.T) {
	tel := telemetry.NewRegistry()
	srv, err := New(Config{QueueDepth: 1, WorkersPerShard: 1, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	prof := camera.Nexus5()
	frames := sharedFrames(t, prof, 2)
	h := testHello("nexus5-queued", prof)
	res, err := RunSession(srv.Addr().String(), h, frames, prof.QuantBits)
	if err != nil {
		t.Fatal(err)
	}
	// The client submits as fast as TCP carries ~230 KB frames while
	// decode takes ~0.5 ms each behind a depth-1 queue: some sheds are
	// effectively guaranteed, but the test only *requires* the
	// consistency properties.
	for seq, reason := range res.Shed {
		if reason != ShedQueue {
			t.Errorf("frame %d shed with reason %d, want ShedQueue", seq, reason)
		}
	}
	if res.Stats.ShedQueue != uint64(len(res.Shed)) {
		t.Errorf("stats.ShedQueue = %d, client saw %d", res.Stats.ShedQueue, len(res.Shed))
	}
	verifySession(t, h, frames, res)
}

// TestDebugIngestEndpoint: /debug/ingest renders the per-tenant
// rows with the aggregate counters.
func TestDebugIngestEndpoint(t *testing.T) {
	srv, err := New(Config{Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	prof := camera.Nexus5()
	frames := sharedFrames(t, prof, 2)
	for _, dev := range []string{"debug-a", "debug-b"} {
		if _, err := RunSession(srv.Addr().String(), testHello(dev, prof), frames, prof.QuantBits); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	srv.serveDebug(rec, httptest.NewRequest("GET", "/debug/ingest", nil))
	var doc struct {
		Sessions int64 `json:"sessions"`
		FramesIn int64 `json:"frames_in"`
		CacheLen int   `json:"cal_cache_len"`
		Tenants  []struct {
			Device   string  `json:"device"`
			Sessions int64   `json:"sessions"`
			P99Us    float64 `json:"latency_p99_us"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/ingest is not JSON: %v\n%s", err, rec.Body.String())
	}
	if doc.Sessions != 2 || len(doc.Tenants) != 2 || doc.CacheLen != 2 {
		t.Errorf("debug doc: sessions=%d tenants=%d cacheLen=%d, want 2/2/2",
			doc.Sessions, len(doc.Tenants), doc.CacheLen)
	}
	if doc.FramesIn != 2*int64(len(frames)) {
		t.Errorf("frames_in = %d, want %d", doc.FramesIn, 2*len(frames))
	}
	for _, ten := range doc.Tenants {
		// A single frame decodes in ~400 µs, so a plausible p99 sits
		// well above 50 µs; a tiny value means the latency histogram's
		// bucket bounds are in the wrong unit and every observation
		// overflowed (quantiles then collapse to the top bound).
		if ten.Sessions != 1 || ten.P99Us <= 50 {
			t.Errorf("tenant %s: sessions=%d p99=%.0fµs (want > 50µs)", ten.Device, ten.Sessions, ten.P99Us)
		}
	}
}

// TestIngestSoak is the `make ingest-soak` gate (run with -race):
// a multi-device, multi-round, multi-shard session storm. Every
// session's block stream must match its serial reference (seeded
// reconnects included), reconnect rounds must hit the calibration
// cache, and tearing the server down must leave no goroutine behind.
func TestIngestSoak(t *testing.T) {
	const (
		devices = 6
		rounds  = 2
	)
	baseline := runtime.NumGoroutine()
	tel := telemetry.NewRegistry()
	srv, err := New(Config{Shards: 3, QueueDepth: 4, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}

	profiles := []camera.Profile{camera.Nexus5(), camera.IPhone5S(), camera.Ideal()}
	frames := map[string][]*camera.Frame{}
	for _, p := range profiles {
		frames[p.Name] = sharedFrames(t, p, 2)
	}

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		results := make([]*SessionResult, devices)
		hellos := make([]Hello, devices)
		errs := make([]error, devices)
		for d := 0; d < devices; d++ {
			prof := profiles[d%len(profiles)]
			hellos[d] = testHello(fmt.Sprintf("soak-%s-%d", prof.Name, d), prof)
			wg.Add(1)
			go func(d int, prof camera.Profile) {
				defer wg.Done()
				results[d], errs[d] = RunSession(srv.Addr().String(), hellos[d], frames[prof.Name], prof.QuantBits)
			}(d, prof)
		}
		wg.Wait()
		for d := 0; d < devices; d++ {
			if errs[d] != nil {
				t.Fatalf("round %d device %d: %v", round, d, errs[d])
			}
			res := results[d]
			if round > 0 && !res.CalHit() {
				t.Errorf("round %d device %d: reconnect missed the calibration cache", round, d)
			}
			if round == 0 && res.CalHit() {
				t.Errorf("device %d: first contact claims a cache hit", d)
			}
			prof := profiles[d%len(profiles)]
			verifySession(t, hellos[d], frames[prof.Name], res)
		}
	}

	snap := tel.Snapshot()
	if hits := snap.Counters["ingest.cal_cache_hits"]; hits != devices*(rounds-1) {
		t.Errorf("cal_cache_hits = %d, want %d", hits, devices*(rounds-1))
	}
	if sess := snap.Counters["ingest.sessions"]; sess != devices*rounds {
		t.Errorf("ingest.sessions = %d, want %d", sess, devices*rounds)
	}

	if err := srv.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after Close: %d live, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTenantRowsBounded: per-device rows stay within Config.CacheSize
// however many distinct devices connect, the row evicted is always
// the least recently active one, the heap stays flat over a million
// distinct ids, and the ingest.* totals still count every device.
func TestTenantRowsBounded(t *testing.T) {
	const bound = 256
	tel := telemetry.NewRegistry()
	srv, err := New(Config{CacheSize: bound, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	rows := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		if len(srv.tenants) != srv.tenantLRU.Len() {
			t.Fatalf("%d tenant rows but %d in the LRU", len(srv.tenants), srv.tenantLRU.Len())
		}
		return len(srv.tenants)
	}
	resident := func(id string) bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		_, ok := srv.tenants[id]
		return ok
	}

	// Fill to the bound, then touch the oldest row: the next new
	// device evicts the second oldest instead.
	for i := 0; i < bound; i++ {
		srv.tenantFor(fmt.Sprintf("lru-%d", i))
	}
	srv.touch(srv.tenantFor("lru-0"))
	srv.tenantFor("lru-new")
	if !resident("lru-0") || resident("lru-1") || !resident("lru-new") {
		t.Fatalf("eviction did not take the least recently active row: lru-0 %v lru-1 %v lru-new %v",
			resident("lru-0"), resident("lru-1"), resident("lru-new"))
	}

	const (
		ids        = 1_000_000
		checkpoint = 100_000
	)
	var heapAt, heapEnd uint64
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < ids; i++ {
		srv.tenantFor("churn-" + strconv.Itoa(i)).framesIn.Inc()
		if i == checkpoint {
			heapAt = heap()
		}
		if i%(ids/10) == 0 {
			if n := rows(); n > bound {
				t.Fatalf("after %d devices: %d tenant rows, bound %d", i+1, n, bound)
			}
		}
	}
	heapEnd = heap()
	if n := rows(); n != bound {
		t.Errorf("%d tenant rows after churn, want the bound %d", n, bound)
	}
	if heapEnd > heapAt+4<<20 {
		t.Errorf("heap grew from %d to %d bytes between %d and %d distinct devices", heapAt, heapEnd, checkpoint, ids)
	}
	if got := tel.Snapshot().Counters["ingest.tenant.frames_in"]; got != ids {
		t.Errorf("ingest.tenant.frames_in = %d after evictions, want %d", got, ids)
	}
}

// TestNonFiniteLinkParamsRejected sets every float field of a HELLO to
// NaN, +Inf and −Inf in turn. The link parameters each field feeds —
// coding.Params for the RS sizing, modem.RxConfig for the receiver —
// must fail Validate, and openSession must refuse the HELLO. NaN once
// passed every range check, so a NaN LossRatio, DataFraction or
// WhiteFraction opened a session.
func TestNonFiniteLinkParamsRejected(t *testing.T) {
	srv, err := New(Config{Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	good := testHello("nonfinite-01", camera.Nexus5())
	if sess, _, err := srv.openSession(good); err != nil || sess == nil {
		t.Fatalf("valid HELLO refused: %v", err)
	}
	for _, f := range []struct {
		name string
		set  func(*Hello, float64)
	}{
		{"SymbolRate", func(h *Hello, v float64) { h.SymbolRate = v }},
		{"WhiteFraction", func(h *Hello, v float64) { h.WhiteFraction = v }},
		{"DataFraction", func(h *Hello, v float64) { h.DataFraction = v }},
		{"FrameRate", func(h *Hello, v float64) { h.FrameRate = v }},
		{"LossRatio", func(h *Hello, v float64) { h.LossRatio = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			h := good
			f.set(&h, v)
			params := coding.Params{
				SymbolRate: h.SymbolRate, FrameRate: h.FrameRate, LossRatio: h.LossRatio,
				Order: csk.Order(h.Order), DataFraction: h.DataFraction,
			}
			rxCfg := modem.RxConfig{
				Order: csk.Order(h.Order), SymbolRate: h.SymbolRate, WhiteFraction: h.WhiteFraction,
				Code: rsCode(t, good),
			}
			feedsParams := f.name != "WhiteFraction"
			feedsRx := f.name == "SymbolRate" || f.name == "WhiteFraction"
			if feedsParams && params.Validate() == nil {
				t.Errorf("%s %v: coding.Params.Validate accepted it", f.name, v)
			}
			if feedsRx && rxCfg.Validate() == nil {
				t.Errorf("%s %v: modem.RxConfig.Validate accepted it", f.name, v)
			}
			if _, _, err := srv.openSession(h); err == nil {
				t.Errorf("%s %v: openSession opened a session", f.name, v)
			}
		}
	}
}

// TestHostileHelloRefusedAtHeader sends a HELLO header that claims a
// 16 MiB body, and nothing more. The server must refuse it at the
// header: return at once, without waiting for the body, having
// allocated under 1 MiB: a body buffer allocated for the claim would be
// held for as long as the client keeps the connection open.
func TestHostileHelloRefusedAtHeader(t *testing.T) {
	srv, err := New(Config{Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	client, conn := net.Pipe()
	defer client.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(conn)
		conn.Close()
	}()
	n := maxMessageSize
	if _, err := client.Write([]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n), wireVersion, msgHello}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the server is still reading the claimed 16 MiB HELLO body")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing the HELLO header allocated %d bytes", got)
	}
}

// rsCode returns the RS code a valid HELLO sizes.
func rsCode(t *testing.T, h Hello) *rs.Code {
	t.Helper()
	code, err := coding.Params{
		SymbolRate: h.SymbolRate, FrameRate: h.FrameRate, LossRatio: h.LossRatio,
		Order: csk.Order(h.Order), DataFraction: h.DataFraction,
	}.LinkCodeErasure()
	if err != nil {
		t.Fatal(err)
	}
	return code
}
