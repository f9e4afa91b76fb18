package main

import "testing"

// TestFleetSmoke runs a short fleet: every round's FRAMEs must be
// answered exactly once, the sampled sessions must match a serial
// re-decode, and the ACK latencies must be reported.
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts an ingest server and simulates captures")
	}
	rep := newReport()
	if err := runFleet(5, 2.5, newTracer(true), rep); err != nil {
		t.Fatal(err)
	}
	if rep.attempted == 0 || rep.failed != 0 {
		t.Fatalf("attempted %d, failed %d", rep.attempted, rep.failed)
	}
	for _, name := range []string{"frame_p50_us", "frame_p99_us", "decode_fps", "setup_s"} {
		if v := rep.e2e[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want a positive measurement", name, v)
		}
	}
	for _, name := range []string{"ingest.transport_us.p50", "pipeline.submit_to_decode_us.p50", "ingest.session_open_ms.p50"} {
		if v := rep.layer[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want a positive measurement", name, v)
		}
	}
}
