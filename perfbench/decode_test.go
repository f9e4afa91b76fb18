package main

import (
	"testing"

	"colorbars/internal/camera"
	"colorbars/internal/colorspace"
)

// smallSpec shrinks a decode workload to a couple of short captures.
func smallSpec(s linkSpec, captures int, seconds float64) linkSpec {
	s.captures, s.captureSec = captures, seconds
	return s
}

// corpusOutcome is what a seed fixes about a decode workload.
type corpusOutcome struct {
	tally    blockTally
	attempts int64
	frames   int
}

func decodeOutcome(t *testing.T, s linkSpec, seed int64) corpusOutcome {
	t.Helper()
	code, err := s.code()
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := s.setUpCorpus(code, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out corpusOutcome
	for _, c := range corpus {
		out.tally.merge(c.want.tally)
		out.attempts += c.want.attempts
		out.frames += len(c.frames)
	}
	return out
}

func TestSeedFixesGoodputFailuresAndRSAttempts(t *testing.T) {
	for name, s := range map[string]linkSpec{
		"clean-16csk": smallSpec(clean16CSK(), 2, 1),
		"chaos-4csk":  smallSpec(chaos4CSK(), 1, 2),
	} {
		t.Run(name, func(t *testing.T) {
			a, b := decodeOutcome(t, s, 7), decodeOutcome(t, s, 7)
			if a != b {
				t.Fatalf("same seed, different outcome: %+v vs %+v", a, b)
			}
			if a.tally.ok == 0 {
				t.Fatalf("no block decoded: %+v", a)
			}
			if c := decodeOutcome(t, s, 8); c == a {
				t.Errorf("seeds 7 and 8 gave identical outcomes %+v; the seed must drive the inputs", a)
			}
		})
	}
}

func TestRepeatPassReproducesWarmUpDecode(t *testing.T) {
	s := smallSpec(chaos4CSK(), 1, 2)
	code, err := s.code()
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.setUp(code, 3)
	if err != nil {
		t.Fatal(err)
	}
	sm := newSamples(len(c.frames))
	got, err := s.decodePass(code, c, &camera.Frame{}, sm, newTracer(false), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.sameDecode(c.want) {
		t.Fatalf("repeat pass %+v, warm-up %+v", got.tally, c.want.tally)
	}
	if c.want.attempts <= int64(c.want.tally.delivered) {
		t.Errorf("chaos capture made %d RS attempts for %d blocks; the loss-split search should run",
			c.want.attempts, c.want.tally.delivered)
	}
	for i, v := range sm.frame {
		if len(v) != 1 || v[0] <= 0 {
			t.Fatalf("frame %d timings %v, want one positive sample", i, v)
		}
	}
}

func TestStoredFrameRoundTripsExactly(t *testing.T) {
	f := camera.New(camera.Nexus5(), 1).Capture(constSource{}, 0)
	sf, err := storeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	var g camera.Frame
	sf.load(&g)
	if g.Rows != f.Rows || g.Cols != f.Cols || g.Start != f.Start || g.Exposure != f.Exposure {
		t.Fatalf("header changed: %+v", g)
	}
	for i := range f.Pix {
		if g.Pix[i] != f.Pix[i] {
			t.Fatalf("pixel %d: %v, want %v", i, g.Pix[i], f.Pix[i])
		}
	}
}

type constSource struct{}

func (constSource) Mean(t0, t1 float64) colorspace.RGB { return colorspace.RGB{R: 0.5, G: 0.3, B: 0.2} }
