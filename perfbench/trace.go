package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one
// frame (or one session) share an id; parent indexes the enclosing
// span in the tracer, -1 for a root.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace; later spans are counted but not
// kept.
const maxSpans = 1 << 21

// tracer keeps spans in memory and writes them out once, at the end of
// the run. A disabled tracer records nothing; every method is safe on
// it and costs one branch.
type tracer struct {
	on      bool
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now()}
}

// add records one span and returns its index (-1 when not recorded).
func (t *tracer) add(id uint64, name string, parent int, start, end time.Time) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(),
		End:   end.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// layerTime is one row of the self-time table.
type layerTime struct {
	name        string
	count       int
	total, self float64 // seconds
}

// selfTimes aggregates per-name span and self time. A span's self time
// is its duration minus the part its children cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	rows := map[string]*layerTime{}
	for i, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerTime{name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		self := d - child[i]
		if self < 0 {
			self = 0
		}
		r.count++
		r.total += float64(d) / 1e9
		r.self += float64(self) / 1e9
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// table renders the per-layer self-time table.
func (t *tracer) table() string {
	rows := t.selfTimes()
	var all float64
	for _, r := range rows {
		all += r.self
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %9s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %9d %12.1f %12.1f %6.1f%%\n",
			r.name, r.count, r.total*1e3, r.self*1e3, 100*ratio(r.self, all))
	}
	if t.dropped > 0 {
		fmt.Fprintf(&b, "(%d spans beyond the %d-span buffer were not kept)\n", t.dropped, maxSpans)
	}
	return b.String()
}

// write dumps the spans as JSON lines, headed by the host fingerprint,
// and returns the file path.
func (t *tracer) write(workload string, seed int64, host string) (string, error) {
	path := filepath.Join(outDir(), fmt.Sprintf("perfbench-trace-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	enc.Encode(map[string]any{"workload": workload, "seed": seed, "host": host, "spans": len(t.spans)})
	for _, s := range t.spans {
		enc.Encode(s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
