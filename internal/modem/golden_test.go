package modem

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/channel"
	"colorbars/internal/csk"
	"colorbars/internal/fault"
	"colorbars/internal/packet"
)

//go:generate go test -run TestGoldenCorpus -count 1 -args -update

// The corpus digests are rewritten (instead of asserted) under the
// package's shared -update flag (make golden); see telemetry_test.go
// for the flag declaration.

// goldenDir holds the committed corpus digests.
const goldenDir = "testdata/golden"

// goldenScenario is one seed-derived corpus entry. Every field that
// influences the capture is explicit here, so the corpus regenerates
// bit-identically from the source tree alone — no frame data is
// committed, only the decode digests.
type goldenScenario struct {
	name     string
	order    csk.Order
	rate     float64
	duration float64
	seed     int64
	schedule fault.Schedule
}

// goldenScenarios is the corpus: a clean link plus one scenario per
// optical fault class the self-healing receiver is tuned against.
// Durations keep each capture around sixty frames so the whole corpus
// replays through both front ends in seconds, including under -race.
func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{
			name: "clean", order: csk.CSK8, rate: 2000,
			duration: 2.0, seed: 0x601d,
		},
		{
			name: "occlusion", order: csk.CSK8, rate: 2000,
			duration: 2.0, seed: 0x0cc1,
			schedule: fault.Schedule{Events: []fault.Event{
				{Class: fault.Occlusion, Start: 0.8, Duration: 0.35, Magnitude: 0.9},
			}},
		},
		{
			name: "awb-drift", order: csk.CSK16, rate: 3000,
			duration: 2.0, seed: 0xa3b0,
			schedule: fault.Schedule{Events: []fault.Event{
				{Class: fault.AWBDrift, Start: 0.6, Duration: 0.8, Magnitude: 0.12},
			}},
		},
		{
			name: "noise-burst", order: csk.CSK8, rate: 2000,
			duration: 2.0, seed: 0x0b57,
			schedule: fault.Schedule{Events: []fault.Event{
				{Class: fault.NoiseBurst, Start: 0.9, Duration: 0.3, Magnitude: 0.25},
			}},
		},
	}
}

// goldenFrames builds one scenario's capture: known message through
// the optical channel, fault-injected, captured with the Nexus 5
// profile. Deterministic in the scenario alone.
func goldenFrames(t testing.TB, sc goldenScenario) (*linkUnderTest, []*camera.Frame) {
	t.Helper()
	prof := camera.Nexus5()
	l := newLink(t, sc.order, sc.rate, prof, sc.seed)
	msg := make([]byte, 4*l.rx.cfg.Code.K())
	for i := range msg {
		msg[i] = byte(int(sc.seed) + i*131)
	}
	w, err := l.tx.BuildWaveformRepeating(msg, sc.duration+0.5)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := channel.New(channel.DefaultConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	var src camera.Source = ch
	var inj *fault.Injector
	if !sc.schedule.Empty() {
		inj = fault.New(fault.Config{Seed: sc.seed, Schedule: sc.schedule})
		src = inj.WrapSource(ch)
	}
	frames := l.cam.CaptureVideo(src, 0, int(sc.duration*prof.FrameRate))
	if inj != nil {
		frames = inj.FilterFrames(frames)
	}
	if len(frames) == 0 {
		t.Fatalf("%s: no frames captured", sc.name)
	}
	return l, frames
}

// goldenDecode replays frames through a fresh receiver for the
// scenario, recording every frame's classified symbols. reference
// selects the scalar front end (reference_test.go) in place of
// Receiver.Analyze; both feed the same ProcessAnalysis.
func goldenDecode(t testing.TB, sc goldenScenario, l *linkUnderTest, frames []*camera.Frame, reference bool) ([][]packet.RxSymbol, []Block) {
	t.Helper()
	rx, err := NewReceiver(RxConfig{
		Order:         sc.order,
		SymbolRate:    sc.rate,
		WhiteFraction: 0.2,
		Code:          l.rx.cfg.Code,
	})
	if err != nil {
		t.Fatal(err)
	}
	var symbols [][]packet.RxSymbol
	var blocks []Block
	for _, f := range frames {
		var a *Analysis
		if reference {
			a = analyzeReference(rx, f)
		} else {
			a = rx.Analyze(f)
		}
		// Classification depends only on the analysis and the
		// references, and the references change only inside
		// ProcessAnalysis's packet loop, so these are exactly the
		// symbols ProcessAnalysis deframes.
		symbols = append(symbols, rx.cls.emitSymbolsInto(nil, a))
		blocks = append(blocks, rx.ProcessAnalysis(a)...)
	}
	blocks = append(blocks, rx.Flush()...)
	return symbols, blocks
}

// symbolABTolerance bounds the per-coordinate a*/b* disagreement
// between front ends for a symbol both classify identically. Two
// effects separate the paths: the tabulated Lab conversion (ceiling
// colorspace.LUTMaxDeltaE2000, coordinate error well under 0.05) and
// — much larger — single-row band-boundary shifts, where a razor-edge
// segmentation threshold resolves differently and moves one row
// between adjacent bands, nudging both band means. Observed shifts
// stay under 0.3; the tolerance leaves headroom while remaining an
// order of magnitude below the constellation's inter-point distances,
// so a genuine classification-relevant divergence still fails.
const symbolABTolerance = 0.75

// TestGoldenDifferential replays the corpus through both front ends
// and asserts they agree: symbol-for-symbol on kind, within tolerance
// on observed color, and byte-for-byte on every decoded block.
func TestGoldenDifferential(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			l, frames := goldenFrames(t, sc)
			fastSyms, fastBlocks := goldenDecode(t, sc, l, frames, false)
			refSyms, refBlocks := goldenDecode(t, sc, l, frames, true)

			if len(fastSyms) != len(refSyms) {
				t.Fatalf("frame count: fast %d vs reference %d", len(fastSyms), len(refSyms))
			}
			for fi := range fastSyms {
				fs, rs := fastSyms[fi], refSyms[fi]
				if len(fs) != len(rs) {
					t.Fatalf("frame %d: symbol count fast %d vs reference %d", fi, len(fs), len(rs))
				}
				for si := range fs {
					if fs[si].Kind != rs[si].Kind {
						t.Fatalf("frame %d symbol %d: kind fast %v vs reference %v",
							fi, si, fs[si].Kind, rs[si].Kind)
					}
					da := math.Abs(fs[si].AB.A - rs[si].AB.A)
					db := math.Abs(fs[si].AB.B - rs[si].AB.B)
					if da > symbolABTolerance || db > symbolABTolerance {
						t.Fatalf("frame %d symbol %d: AB diverges by (%g, %g), tolerance %g",
							fi, si, da, db, symbolABTolerance)
					}
				}
			}

			if len(fastBlocks) != len(refBlocks) {
				t.Fatalf("block count: fast %d vs reference %d", len(fastBlocks), len(refBlocks))
			}
			for bi := range fastBlocks {
				fb, rb := fastBlocks[bi], refBlocks[bi]
				if fb.Recovered != rb.Recovered || fb.Erasures != rb.Erasures ||
					fb.SymbolsObserved != rb.SymbolsObserved {
					t.Fatalf("block %d: status fast %+v vs reference %+v", bi, fb, rb)
				}
				if string(fb.Data) != string(rb.Data) {
					t.Fatalf("block %d: data mismatch", bi)
				}
				if len(fb.RawSymbols) != len(rb.RawSymbols) {
					t.Fatalf("block %d: raw symbol count fast %d vs reference %d",
						bi, len(fb.RawSymbols), len(rb.RawSymbols))
				}
				for i := range fb.RawSymbols {
					if fb.RawSymbols[i] != rb.RawSymbols[i] {
						t.Fatalf("block %d raw symbol %d: fast %d vs reference %d",
							bi, i, fb.RawSymbols[i], rb.RawSymbols[i])
					}
				}
			}
		})
	}
}

// goldenDigest is one committed corpus entry. Digests cover the
// decode-semantic content only (symbol kinds, block bytes, block
// status) — not raw float observations — so the corpus is stable
// across numerically-equivalent refactors while still pinning every
// decision the decoder makes.
type goldenDigest struct {
	Schema       int     `json:"schema"`
	Name         string  `json:"name"`
	Order        int     `json:"order"`
	SymbolRate   float64 `json:"symbol_rate"`
	Duration     float64 `json:"duration"`
	Seed         int64   `json:"seed"`
	Frames       int     `json:"frames"`
	Symbols      int     `json:"symbols"`
	Blocks       int     `json:"blocks"`
	Recovered    int     `json:"recovered"`
	SymbolDigest string  `json:"symbol_digest"`
	BlockDigest  string  `json:"block_digest"`
}

// digestSymbols hashes the per-frame symbol kind streams with frame
// delimiters, returning (hex digest, total symbol count).
func digestSymbols(symbols [][]packet.RxSymbol) (string, int) {
	h := sha256.New()
	n := 0
	for _, frame := range symbols {
		for _, s := range frame {
			h.Write([]byte{byte(s.Kind)})
			n++
		}
		h.Write([]byte{0xFF})
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// digestBlocks hashes every block's status and payload bytes,
// returning (hex digest, recovered count).
func digestBlocks(blocks []Block) (string, int) {
	h := sha256.New()
	rec := 0
	for _, b := range blocks {
		status := byte(0)
		if b.Recovered {
			status = 1
			rec++
		}
		h.Write([]byte{status, byte(b.Erasures), byte(b.Erasures >> 8)})
		h.Write(b.Data)
		for _, s := range b.RawSymbols {
			h.Write([]byte{byte(s), byte(s >> 8)})
		}
		h.Write([]byte{0xFE})
	}
	return hex.EncodeToString(h.Sum(nil)), rec
}

// TestGoldenCorpus replays the corpus through the fast path and
// checks the decode digests against the committed testdata/golden
// files; -update-golden (make golden) rewrites them.
func TestGoldenCorpus(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			l, frames := goldenFrames(t, sc)
			symbols, blocks := goldenDecode(t, sc, l, frames, false)
			symDigest, nSyms := digestSymbols(symbols)
			blkDigest, nRec := digestBlocks(blocks)
			got := goldenDigest{
				Schema:       1,
				Name:         sc.name,
				Order:        int(sc.order),
				SymbolRate:   sc.rate,
				Duration:     sc.duration,
				Seed:         sc.seed,
				Frames:       len(frames),
				Symbols:      nSyms,
				Blocks:       len(blocks),
				Recovered:    nRec,
				SymbolDigest: symDigest,
				BlockDigest:  blkDigest,
			}
			path := filepath.Join(goldenDir, sc.name+".json")
			if *updateGolden {
				raw, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d frames, %d symbols, %d/%d blocks)",
					path, got.Frames, got.Symbols, got.Recovered, got.Blocks)
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run make golden): %v", err)
			}
			var want goldenDigest
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Errorf("golden mismatch for %s:\n  want %+v\n  got  %+v", sc.name, want, got)
			}
		})
	}
}

// TestGoldenCorpusRecovers sanity-checks the corpus itself: the clean
// scenario must decode blocks, and every fault scenario must still
// see traffic (the corpus would pin nothing if a scenario went dark).
func TestGoldenCorpusRecovers(t *testing.T) {
	sc := goldenScenarios()[0]
	l, frames := goldenFrames(t, sc)
	_, blocks := goldenDecode(t, sc, l, frames, false)
	rec := 0
	for _, b := range blocks {
		if b.Recovered {
			rec++
		}
	}
	if rec == 0 {
		t.Fatalf("clean scenario recovered no blocks out of %d", len(blocks))
	}
}
