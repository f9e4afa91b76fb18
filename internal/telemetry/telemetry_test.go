package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	cases := []struct {
		name     string
		bounds   []float64
		observe  []float64
		wantCnts []int64 // per bucket, including overflow
		wantSum  float64
	}{
		{
			name:     "values land in correct buckets",
			bounds:   []float64{1, 2, 5},
			observe:  []float64{0.5, 1, 1.5, 2, 3, 5, 6},
			wantCnts: []int64{2, 2, 2, 1},
			wantSum:  19,
		},
		{
			name:     "all overflow",
			bounds:   []float64{1},
			observe:  []float64{10, 20},
			wantCnts: []int64{0, 2},
			wantSum:  30,
		},
		{
			name:     "unsorted bounds are sorted",
			bounds:   []float64{5, 1, 2},
			observe:  []float64{0.5, 4},
			wantCnts: []int64{1, 0, 1, 0},
			wantSum:  4.5,
		},
		{
			name:     "empty",
			bounds:   []float64{1, 2},
			wantCnts: []int64{0, 0, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			h := r.Histogram("h", tc.bounds)
			for _, v := range tc.observe {
				h.Observe(v)
			}
			var total int64
			for i, want := range tc.wantCnts {
				got := h.counts[i].Load()
				if got != want {
					t.Errorf("bucket %d: got %d, want %d", i, got, want)
				}
				total += got
			}
			if h.Count() != total {
				t.Errorf("Count() = %d, want %d", h.Count(), total)
			}
			if math.Abs(h.Sum()-tc.wantSum) > 1e-9 {
				t.Errorf("Sum() = %v, want %v", h.Sum(), tc.wantSum)
			}
		})
	}
}

func TestHistogramQuantile(t *testing.T) {
	cases := []struct {
		name    string
		bounds  []float64
		observe []float64
		q       float64
		want    float64
	}{
		{name: "empty returns zero", bounds: []float64{1}, q: 0.5, want: 0},
		// 10 observations uniformly in (0,10]: bucket [0,10] holds all;
		// the median interpolates to the bucket midpoint.
		{name: "single bucket midpoint", bounds: []float64{10}, observe: repeat(5, 10), q: 0.5, want: 5},
		// 4 in (0,1], 4 in (1,2]: p50 is the first bucket's upper edge.
		{name: "two buckets median", bounds: []float64{1, 2}, observe: []float64{0.5, 0.5, 0.5, 0.5, 1.5, 1.5, 1.5, 1.5}, q: 0.5, want: 1},
		// p99 of the same data interpolates near the top of bucket 2:
		// target 7.92 of 8; 3.92/4 through [1,2].
		{name: "two buckets p99", bounds: []float64{1, 2}, observe: []float64{0.5, 0.5, 0.5, 0.5, 1.5, 1.5, 1.5, 1.5}, q: 0.99, want: 1.98},
		// Values beyond the last bound clamp to it.
		{name: "overflow clamps to last bound", bounds: []float64{1, 2}, observe: []float64{100, 200}, q: 0.9, want: 2},
		{name: "q clamped to [0,1]", bounds: []float64{10}, observe: repeat(5, 10), q: 1.7, want: 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			h := r.Histogram("h", tc.bounds)
			for _, v := range tc.observe {
				h.Observe(v)
			}
			if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

// repeat returns n copies of v.
func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestCounterConcurrent exercises counters (with parent propagation
// and a sink attached) from many goroutines; run under -race it also
// proves the increment path is race-free.
func TestCounterConcurrent(t *testing.T) {
	parent := NewRegistry()
	child := parent.NewChild()
	child.SetSink(NewJSONLSink(io.Discard))
	c := child.Counter("c")
	g := child.Gauge("g")
	h := child.Histogram("h", []float64{1, 2, 3})

	const workers, each = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				g.Set(float64(w))
				h.Observe(float64(i % 4))
			}
		}(w)
	}
	wg.Wait()

	want := int64(workers * each)
	if c.Value() != want {
		t.Errorf("counter = %d, want %d", c.Value(), want)
	}
	if got := parent.Counter("c").Value(); got != want {
		t.Errorf("parent counter = %d, want %d (propagation)", got, want)
	}
	if h.Count() != want {
		t.Errorf("histogram count = %d, want %d", h.Count(), want)
	}
	if got := parent.Histogram("h", nil).Count(); got != want {
		t.Errorf("parent histogram count = %d, want %d (propagation)", got, want)
	}
	if v := g.Value(); v < 0 || v >= workers {
		t.Errorf("gauge = %v, want one of the worker ids", v)
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	var clock int64
	r.SetClock(func() int64 { clock += 100; return clock })
	var sink CollectorSink
	r.SetSink(&sink)

	outer := r.StartSpan("outer") // t=100
	inner := outer.StartChild("inner")
	leaf := inner.StartChild("leaf")
	leaf.End()
	inner.End()
	outer.End()

	events := sink.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	// Spans complete innermost-first.
	wantOrder := []struct{ name, parent string }{
		{"leaf", "inner"},
		{"inner", "outer"},
		{"outer", ""},
	}
	for i, want := range wantOrder {
		e := events[i]
		if e.Kind != KindSpan || e.Name != want.name || e.Parent != want.parent {
			t.Errorf("event %d = %+v, want span %q parent %q", i, e, want.name, want.parent)
		}
		if e.Seq != int64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	// Nesting: each parent strictly contains its child in time.
	byName := map[string]Event{}
	for _, e := range events {
		byName[e.Name] = e
	}
	for _, pair := range [][2]string{{"outer", "inner"}, {"inner", "leaf"}} {
		p, c := byName[pair[0]], byName[pair[1]]
		if c.TNs < p.TNs || c.TNs+c.DurNs > p.TNs+p.DurNs {
			t.Errorf("span %q [%d,%d] not contained in %q [%d,%d]",
				pair[1], c.TNs, c.TNs+c.DurNs, pair[0], p.TNs, p.TNs+p.DurNs)
		}
	}
	// Each span also fed its latency histogram.
	for _, name := range []string{"outer", "inner", "leaf"} {
		if got := r.Histogram(name, nil).Count(); got != 1 {
			t.Errorf("histogram %q count = %d, want 1", name, got)
		}
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.SetSink(&CollectorSink{})
	r.SetClock(func() int64 { return 0 })
	c := r.Counter("c")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Errorf("nil counter value = %d", c.Value())
	}
	g := r.Gauge("g")
	g.Set(3)
	if g.Value() != 0 {
		t.Errorf("nil gauge value = %v", g.Value())
	}
	h := r.Histogram("h", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram recorded something")
	}
	sp := r.StartSpan("s")
	sp.StartChild("t").End()
	sp.End()
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("nil snapshot not empty: %+v", snap)
	}
	child := r.NewChild()
	if child == nil {
		t.Fatal("nil NewChild returned nil")
	}
	child.Counter("x").Inc() // must not panic on nil parent chain
}

func TestSnapshotRenderers(t *testing.T) {
	r := NewRegistry()
	r.Counter("rx.frames").Add(42)
	r.Gauge("camera.iso").Set(400)
	h := r.Histogram("rx.strip", nil)
	h.Observe(0.001)
	h.Observe(0.003)

	snap := r.Snapshot()
	if snap.Counters["rx.frames"] != 42 {
		t.Errorf("snapshot counter = %d", snap.Counters["rx.frames"])
	}
	if snap.Gauges["camera.iso"] != 400 {
		t.Errorf("snapshot gauge = %v", snap.Gauges["camera.iso"])
	}
	hs := snap.Histograms["rx.strip"]
	if hs.Count != 2 || math.Abs(hs.Sum-0.004) > 1e-12 || math.Abs(hs.Mean-0.002) > 1e-12 {
		t.Errorf("snapshot histogram = %+v", hs)
	}

	js, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.Counters["rx.frames"] != 42 {
		t.Errorf("round-tripped counter = %d", back.Counters["rx.frames"])
	}

	text := snap.String()
	for _, want := range []string{"rx.frames", "camera.iso", "rx.strip", "count 2"} {
		if !strings.Contains(text, want) {
			t.Errorf("String() missing %q:\n%s", want, text)
		}
	}
	if (Snapshot{}).String() != "(no metrics)" {
		t.Errorf("empty snapshot String() = %q", (Snapshot{}).String())
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry()
	var clock int64
	r.SetClock(func() int64 { clock += 10; return clock })
	r.SetSink(NewJSONLSink(&buf))

	r.Counter("n").Add(3)
	sp := r.StartSpan("work")
	sp.End()

	sc := bufio.NewScanner(&buf)
	var events []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Kind != KindCount || events[0].Delta != 3 || events[0].Value != 3 {
		t.Errorf("count event = %+v", events[0])
	}
	if events[1].Kind != KindSpan || events[1].Name != "work" || events[1].DurNs != 10 {
		t.Errorf("span event = %+v", events[1])
	}
}

func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("rx.frames").Inc()
	publishExpvar("telemetry_test", r)
	publishExpvar("telemetry_test", r) // second publish must not panic

	l, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	for _, path := range []string{"/debug/vars", "/debug/pprof/cmdline"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", l.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if path == "/debug/vars" && !strings.Contains(string(body), "telemetry_test") {
			t.Errorf("expvar output missing published registry")
		}
	}
}

// TestServeTool covers the cmd tools' shared setup: the trace records
// process-registry events until stop detaches it, the debug listener
// serves until stop closes it, and a listen failure returns an error
// without leaving the trace attached.
func TestServeTool(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	stop, err := ServeTool("127.0.0.1:0", path)
	if err != nil {
		t.Fatal(err)
	}
	Process().Counter("servetool.before").Inc()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	Process().Counter("servetool.after").Inc()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"servetool.before"`)) || bytes.Contains(raw, []byte(`"servetool.after"`)) {
		t.Errorf("trace holds %q, want only the event emitted before stop", raw)
	}

	stop, err = ServeTool("", "")
	if err != nil || stop() != nil {
		t.Fatalf("no-op setup: %v", err)
	}

	l, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := ServeTool(l.Addr().String(), path); err == nil {
		t.Fatal("ServeTool on a bound port succeeded")
	}
	Process().Counter("servetool.failed").Inc()
	if raw, _ := os.ReadFile(path); bytes.Contains(raw, []byte(`"servetool.failed"`)) {
		t.Error("trace still attached after a failed setup")
	}
}
