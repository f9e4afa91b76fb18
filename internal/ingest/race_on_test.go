//go:build race

package ingest

// raceEnabled reports whether this test binary was built with the
// race detector. The zero-alloc assertion is skipped under it:
// race-mode sync.Pool deliberately drops items to widen interleaving
// coverage, so AllocsPerRun measures the detector, not the frame path.
const raceEnabled = true
