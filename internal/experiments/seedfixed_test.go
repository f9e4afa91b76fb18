package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/csk"
	"colorbars/internal/fault"
	"colorbars/internal/fault/soak"
	"colorbars/internal/linkadapt"
	"colorbars/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite "+seedFixedPath+" (make golden)")

// seedFixedPath holds the committed seed-fixed values, one entry per
// line.
const seedFixedPath = "testdata/seedfixed.jsonl"

// seedFixedEntry is one cell at one seed. Values are exact strings:
// floats in Go's shortest round-trip form, counts in decimal, digests
// in hex. Accepted says why the values are what they are; make golden
// blanks it on every entry whose values it changes, and a blank note
// fails the gate.
type seedFixedEntry struct {
	Cell     string            `json:"cell"`
	Seed     int64             `json:"seed"`
	Values   map[string]string `json:"values"`
	Accepted string            `json:"accepted"`
}

func (e seedFixedEntry) key() string { return fmt.Sprintf("%s seed %d", e.Cell, e.Seed) }

// seedFixedCells are the measurements the seed fixes, whatever the
// host: decode quality at the paper's robust, dense and densest Nexus 5
// points, the adaptive ladders' goodput under an occlusion burst, and
// the chaos soak's decode digest. Each runs at seeds 1–3.
var seedFixedCells = []struct {
	name string
	run  func(seed int64) (map[string]string, error)
}{
	{"decode/csk8@2kHz", decodeValues(csk.CSK8, 2000)},
	{"decode/csk16@3kHz", decodeValues(csk.CSK16, 3000)},
	{"decode/csk32@4kHz", decodeValues(csk.CSK32, 4000)},
	// The default ladder through the adapt soak's burst geometry:
	// occlusion severe enough to black out the top rung.
	{"goodput_chaos", func(seed int64) (map[string]string, error) {
		m, err := metrics.Run(metrics.LinkParams{
			Adaptive: true, Profile: camera.Nexus5(), Duration: soak.AdaptDuration, Seed: seed,
			Fault: fault.Schedule{Events: []fault.Event{{
				Class: fault.Occlusion, Start: soak.AdaptFaultStart,
				Duration: soak.AdaptFaultDuration, Magnitude: 0.6,
			}}},
		})
		return map[string]string{"goodput_bps": exactFloat(m.GoodputBps)}, err
	}},
	// The dense ladder knocked off its equalizer-gated 64-CSK rung;
	// eq_confidence is the mean over anchored frames, the signal its
	// reclimb waits on.
	{"goodput_dense", func(seed int64) (map[string]string, error) {
		r, err := linkadapt.RunSession(linkadapt.SessionParams{
			Seed: seed, Duration: 20, Profile: camera.Ideal(),
			Controller: linkadapt.Config{Ladder: linkadapt.DenseLadder(), StartRung: 1},
			Schedule: fault.Schedule{Events: []fault.Event{{
				Class: fault.Occlusion, Start: 8, Duration: 1.5, Magnitude: 0.95,
			}}},
		})
		var sum, n float64
		for _, c := range r.EqConfByFrame {
			if c > 0 { // zero = unanchored
				sum, n = sum+c, n+1
			}
		}
		mean := 0.0
		if n > 0 {
			mean = sum / n
		}
		return map[string]string{"goodput_bps": exactFloat(r.GoodputBPS), "eq_confidence": exactFloat(mean)}, err
	}},
	{"soak", func(seed int64) (map[string]string, error) {
		r, err := soak.Run(soak.Params{Seed: seed, Duration: 4})
		return map[string]string{
			"blocks_ok":     strconv.Itoa(r.BlocksOK),
			"blocks_failed": strconv.Itoa(r.BlocksFailed),
			"digest":        fmt.Sprintf("%016x", r.Digest),
		}, err
	}},
}

// decodeValues measures one fixed operating point: Nexus 5, white
// fraction 0.2, 1 s.
func decodeValues(order csk.Order, rate float64) func(int64) (map[string]string, error) {
	return func(seed int64) (map[string]string, error) {
		m, err := metrics.Run(metrics.LinkParams{
			Order: order, SymbolRate: rate, Profile: camera.Nexus5(),
			WhiteFraction: 0.2, Duration: 1, Seed: seed,
		})
		return map[string]string{
			"ser":              exactFloat(m.Health.SER),
			"symbols_compared": strconv.FormatInt(m.Health.SymbolsCompared, 10),
			"goodput_bps":      exactFloat(m.GoodputBps),
			"blocks_ok":        strconv.Itoa(m.Stats.BlocksOK),
			"blocks_failed":    strconv.Itoa(m.Stats.BlocksFailed),
			"rs_attempts":      strconv.FormatInt(m.Telemetry.Counters["rx.rs_attempts"], 10),
		}, err
	}
}

func exactFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// TestSeedFixedValues is the exact gate over every seed-fixed value:
// each cell at each seed must reproduce its committed values, and
// every entry must carry a non-empty accepted note. After an
// intentional change, make golden rewrites the file and blanks the
// note of each entry it changed; the gate fails until each of those
// notes says which change moved the values and why.
func TestSeedFixedValues(t *testing.T) {
	var got []seedFixedEntry
	for _, c := range seedFixedCells {
		for seed := int64(1); seed <= 3; seed++ {
			v, err := c.run(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			got = append(got, seedFixedEntry{Cell: c.name, Seed: seed, Values: v})
		}
	}
	committed, err := loadSeedFixed()
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("%v (run make golden)", err)
	}
	if !*update {
		for _, p := range seedFixedProblems(got, committed) {
			t.Error(p)
		}
		return
	}
	notes := map[string]seedFixedEntry{}
	for _, e := range committed {
		notes[e.key()] = e
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	for _, e := range got {
		if w, ok := notes[e.key()]; ok && maps.Equal(w.Values, e.Values) {
			e.Accepted = w.Accepted
		}
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(seedFixedPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// seedFixedProblems lists every way got differs from the committed
// entries, and every committed entry with a blank accepted note.
func seedFixedProblems(got, committed []seedFixedEntry) []string {
	want := map[string]seedFixedEntry{}
	for _, e := range committed {
		want[e.key()] = e
	}
	var out []string
	for _, e := range got {
		w, ok := want[e.key()]
		delete(want, e.key())
		switch {
		case !ok:
			out = append(out, e.key()+": no committed entry (run make golden)")
		case !maps.Equal(w.Values, e.Values):
			out = append(out, fmt.Sprintf("%s: values %v, committed %v", e.key(), e.Values, w.Values))
		case w.Accepted == "":
			out = append(out, e.key()+": blank accepted note: say which change moved these values and why")
		}
	}
	for k := range want {
		out = append(out, k+": committed entry no longer measured (run make golden)")
	}
	sort.Strings(out)
	return out
}

func loadSeedFixed() ([]seedFixedEntry, error) {
	raw, err := os.ReadFile(seedFixedPath)
	if err != nil {
		return nil, err
	}
	var out []seedFixedEntry
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var e seedFixedEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("%s: %w", seedFixedPath, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// TestSeedFixedGateTrips checks the gate itself against the committed
// file: the committed values pass, and one edited value or one blanked
// accepted note fails.
func TestSeedFixedGateTrips(t *testing.T) {
	committed, err := loadSeedFixed()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]seedFixedEntry, len(committed))
	for i, e := range committed {
		got[i] = seedFixedEntry{Cell: e.Cell, Seed: e.Seed, Values: maps.Clone(e.Values)}
	}
	if p := seedFixedProblems(got, committed); len(p) != 0 {
		t.Fatalf("committed values fail against themselves: %v", p)
	}
	got[0].Values["goodput_bps"] += "1"
	if p := seedFixedProblems(got, committed); len(p) != 1 {
		t.Errorf("one edited value: %d problems %v, want 1", len(p), p)
	}
	got[0].Values = committed[0].Values
	committed[len(committed)-1].Accepted = ""
	if p := seedFixedProblems(got, committed); len(p) != 1 {
		t.Errorf("one blanked note: %d problems %v, want 1", len(p), p)
	}
}
