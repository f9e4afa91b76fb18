package main

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// writeWire writes one wire message.
func writeWire(w io.Writer, typ byte, body []byte) error {
	msg := make([]byte, 6+len(body))
	binary.BigEndian.PutUint32(msg, uint32(2+len(body)))
	msg[4], msg[5] = 1, typ
	copy(msg[6:], body)
	_, err := w.Write(msg)
	return err
}

// fakeServer speaks just enough of the ingest protocol for the relay:
// WELCOME for HELLO, then answer(seq) decides each FRAME's responses.
// With stall set it sleeps that long before reading each FRAME, as a
// server whose decode lane has stopped keeping up.
func fakeServer(t *testing.T, stall time.Duration, answer func(seq uint64) [][]byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				var buf []byte
				for {
					if stall > 0 {
						time.Sleep(stall)
					}
					typ, msg, err := readWire(br, buf)
					buf = msg
					if err != nil {
						return
					}
					switch typ {
					case wireHello:
						writeWire(c, wireWelcome, make([]byte, 14))
					case wireFrame:
						for _, m := range answer(binary.BigEndian.Uint64(msg[6+8:])) {
							if _, err := c.Write(m); err != nil {
								return
							}
						}
					case 7: // BYE
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func ack(seq uint64, us uint32) []byte {
	b := make([]byte, 12)
	binary.BigEndian.PutUint64(b, seq)
	binary.BigEndian.PutUint32(b[8:], us)
	m := make([]byte, 6+12)
	binary.BigEndian.PutUint32(m, 14)
	m[4], m[5] = 1, wireAck
	copy(m[6:], b)
	return m
}

func shed(seq uint64, reason byte) []byte {
	m := make([]byte, 6+9)
	binary.BigEndian.PutUint32(m, 11)
	m[4], m[5] = 1, wireShed
	binary.BigEndian.PutUint64(m[6:], seq)
	m[14] = reason
	return m
}

// fakeClient plays a device through the relay: HELLO, every FRAME as
// fast as the socket takes it, BYE; it reads responses until all
// frames are answered or the relay closes.
func fakeClient(t *testing.T, addr string, frames, frameBytes int) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		br := bufio.NewReader(c)
		var buf []byte
		for {
			var err error
			if _, buf, err = readWire(br, buf); err != nil {
				return
			}
		}
	}()
	writeWire(c, wireHello, []byte("hello"))
	body := make([]byte, 16+frameBytes)
	for i := 0; i < frames; i++ {
		binary.BigEndian.PutUint64(body[8:], uint64(i))
		if err := writeWire(c, wireFrame, body); err != nil {
			t.Fatal(err)
		}
	}
	writeWire(c, 7, nil)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("relay never closed the session")
	}
}

// relaySession runs one paced session and returns its plan.
func relaySession(t *testing.T, server string, frames, frameBytes int, period time.Duration) *plan {
	t.Helper()
	rl, err := newRelay(server)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.close()
	p := newPlan(time.Now().Add(20*time.Millisecond), frames, period)
	rl.plans <- p
	fakeClient(t, rl.addr(), frames, frameBytes)
	<-p.done
	return p
}

func TestRelayPacesFramesFromTheirDueInstant(t *testing.T) {
	const frames = 20
	period := 5 * time.Millisecond
	p := relaySession(t, fakeServer(t, 0, func(seq uint64) [][]byte { return [][]byte{ack(seq, 7)} }),
		frames, 64, period)
	if err := p.check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if p.sent[i].Before(p.due[i]) {
			t.Errorf("frame %d forwarded %v before it was due", i, p.due[i].Sub(p.sent[i]))
		}
		if p.answered[i].Before(p.due[i]) {
			t.Errorf("frame %d answered before it was due", i)
		}
		if p.serverUs[i] != 7 {
			t.Errorf("frame %d: server latency %d, want 7", i, p.serverUs[i])
		}
	}
	// The client wrote every frame at once; open-loop pacing spreads
	// them over the schedule.
	// (The first may itself be late by a timer tick.)
	if span, want := p.sent[frames-1].Sub(p.sent[0]), time.Duration(frames-1)*period-5*time.Millisecond; span < want {
		t.Errorf("frames forwarded over %v, want at least %v", span, want)
	}
}

func TestRelayStalledServerGrowsLatencyAndLag(t *testing.T) {
	const frames = 24
	period := 2 * time.Millisecond
	stall := 20 * time.Millisecond
	// Frames big enough that a server which stops reading fills the
	// socket buffers, so the relay itself falls behind the schedule.
	p := relaySession(t, fakeServer(t, stall, func(seq uint64) [][]byte { return [][]byte{ack(seq, 1)} }),
		frames, 1<<20, period)
	if err := p.check(); err != nil {
		t.Fatal(err)
	}
	first := p.answered[0].Sub(p.due[0])
	last := p.answered[frames-1].Sub(p.due[frames-1])
	if last < first+time.Duration(frames/2)*stall {
		t.Errorf("latency from the due instant went %v → %v; a stalled server must make it grow", first, last)
	}
	var lag time.Duration
	for i := range p.due {
		lag = max(lag, p.sent[i].Sub(p.due[i]))
	}
	if lag < 5*stall {
		t.Errorf("max generator lag %v; the relay must report falling behind a stalled server", lag)
	}
}

func TestRelayMatchesAcksAndShedsBySequence(t *testing.T) {
	const frames = 10
	// Odd frames are shed at once; even frames are acknowledged late
	// and out of order, all when the last frame arrives.
	addr := fakeServer(t, 0, func(seq uint64) [][]byte {
		var out [][]byte
		if seq%2 == 1 {
			out = append(out, shed(seq, 2))
		}
		if seq == frames-1 {
			for s := int(frames - 2); s >= 0; s -= 2 {
				out = append(out, ack(uint64(s), uint32(100+s)))
			}
		}
		return out
	})
	p := relaySession(t, addr, frames, 16, time.Millisecond)
	if err := p.check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if i%2 == 1 && p.shed[i] != 2 {
			t.Errorf("frame %d: shed reason %d, want 2", i, p.shed[i])
		}
		if i%2 == 0 && (p.shed[i] != 0 || p.serverUs[i] != uint32(100+i)) {
			t.Errorf("frame %d: shed %d, server latency %d; want an ACK of %d", i, p.shed[i], p.serverUs[i], 100+i)
		}
	}
}

func TestRelayRejectsDuplicateAndMissingAnswers(t *testing.T) {
	dup := fakeServer(t, 0, func(seq uint64) [][]byte {
		if seq == 3 {
			return [][]byte{ack(seq, 1), shed(seq, 1)}
		}
		return [][]byte{ack(seq, 1)}
	})
	if err := relaySession(t, dup, 6, 16, time.Millisecond).check(); err == nil {
		t.Error("a frame answered twice passed the check")
	}
	missing := fakeServer(t, 0, func(seq uint64) [][]byte {
		if seq == 2 {
			return nil
		}
		return [][]byte{ack(seq, 1)}
	})
	if err := relaySession(t, missing, 6, 16, time.Millisecond).check(); err == nil {
		t.Error("an unanswered frame passed the check")
	}
	unknown := fakeServer(t, 0, func(seq uint64) [][]byte { return [][]byte{ack(seq+100, 1)} })
	if err := relaySession(t, unknown, 6, 16, time.Millisecond).check(); err == nil {
		t.Error("an answer to a frame never sent passed the check")
	}
}
