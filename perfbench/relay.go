package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Wire message types and limits of the ingest protocol, as documented
// in internal/ingest/wire.go: [u32 length][version u8][type u8][body],
// with length covering version, type and body.
const (
	wireHello   = 1
	wireWelcome = 2
	wireFrame   = 3
	wireAck     = 4
	wireShed    = 5
	wireMaxSize = 16 << 20
)

// readWire reads one whole message (header included) into buf, growing
// it as needed, and returns its type and bytes.
func readWire(r io.Reader, buf []byte) (byte, []byte, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	if n < 2 || n > wireMaxSize {
		return 0, buf, fmt.Errorf("relay: message length %d out of range", n)
	}
	if cap(buf) < 4+n {
		buf = make([]byte, 4+n)
	}
	msg := buf[:4+n]
	copy(msg, hdr[:])
	if _, err := io.ReadFull(r, msg[6:]); err != nil {
		return 0, buf, err
	}
	return hdr[5], msg, nil
}

// plan is one paced session: when each FRAME is due, and what the
// relay saw happen to it. Index = wire sequence number.
type plan struct {
	due      []time.Time
	sent     []time.Time // when the relay forwarded the FRAME
	answered []time.Time // when its ACK or SHED came back
	serverUs []uint32    // the ACK's server-measured latency
	shed     []byte      // SHED reason, 0 for an ACK
	answers  []int       // ACK + SHED messages seen per FRAME

	helloAt, welcomeAt time.Time
	err                error // protocol violation seen by the relay
	done               chan struct{}
}

func newPlan(base time.Time, frames int, period time.Duration) *plan {
	p := &plan{
		due:      make([]time.Time, frames),
		sent:     make([]time.Time, frames),
		answered: make([]time.Time, frames),
		serverUs: make([]uint32, frames),
		shed:     make([]byte, frames),
		answers:  make([]int, frames),
		done:     make(chan struct{}),
	}
	for i := range p.due {
		p.due[i] = base.Add(time.Duration(i) * period)
	}
	return p
}

// check verifies that every FRAME was forwarded and answered by
// exactly one ACK or SHED.
func (p *plan) check() error {
	if p.err != nil {
		return p.err
	}
	for i, n := range p.answers {
		if p.sent[i].IsZero() {
			return fmt.Errorf("frame %d never reached the server", i)
		}
		if n != 1 {
			return fmt.Errorf("frame %d answered %d times, want exactly once", i, n)
		}
	}
	return nil
}

// relay is a loopback TCP relay between one client connection slot and
// the ingest server. It paces the client's FRAMEs open-loop: each is
// held until its due instant, however early the client wrote it, and
// ACK/SHED responses are matched to FRAMEs by wire sequence number.
// Sessions through one relay are sequential; the caller hands the
// relay each session's plan before dialing it.
type relay struct {
	ln     net.Listener
	target string
	plans  chan *plan
	quit   chan struct{}
	wg     sync.WaitGroup
}

func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target, plans: make(chan *plan, 1), quit: make(chan struct{})}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

// close stops the relay and waits for every relayed session to end.
func (r *relay) close() {
	close(r.quit)
	r.ln.Close()
	r.wg.Wait()
}

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		var p *plan
		select {
		case p = <-r.plans:
		case <-r.quit:
			c.Close()
			return
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			p.serve(c, r.target, r.quit)
		}()
	}
}

// serve relays one session and closes p.done when both directions
// have ended.
func (p *plan) serve(client net.Conn, target string, quit <-chan struct{}) {
	defer close(p.done)
	defer client.Close()
	server, err := net.Dial("tcp", target)
	if err != nil {
		p.err = err
		return
	}
	defer server.Close()

	var wg sync.WaitGroup
	var downErr error
	wg.Add(1)
	go func() { // server → client
		defer wg.Done()
		defer client.Close()
		br := bufio.NewReaderSize(server, 1<<16)
		var buf []byte
		for {
			typ, msg, err := readWire(br, buf)
			buf = msg
			if err != nil {
				if !isClosed(err) {
					downErr = err
				}
				return
			}
			now := time.Now()
			body := msg[6:]
			switch typ {
			case wireWelcome:
				p.welcomeAt = now
			case wireAck, wireShed:
				if len(body) < 9 {
					downErr = fmt.Errorf("relay: short response type %d", typ)
					return
				}
				seq := binary.BigEndian.Uint64(body)
				if seq >= uint64(len(p.answers)) {
					downErr = fmt.Errorf("relay: response for unknown frame %d", seq)
					return
				}
				p.answers[seq]++
				p.answered[seq] = now
				if typ == wireAck {
					p.serverUs[seq] = binary.BigEndian.Uint32(body[8:])
				} else {
					p.shed[seq] = body[8]
				}
			}
			if _, err := client.Write(msg); err != nil {
				downErr = err
				return
			}
		}
	}()

	br := bufio.NewReaderSize(client, 1<<16)
	var buf []byte
	var upErr error
	for upErr == nil {
		typ, msg, err := readWire(br, buf)
		buf = msg
		if err != nil {
			if !isClosed(err) {
				upErr = err
			}
			break
		}
		switch typ {
		case wireHello:
			p.helloAt = time.Now()
		case wireFrame:
			if len(msg) < 6+16 {
				upErr = fmt.Errorf("relay: short FRAME")
				continue
			}
			seq := binary.BigEndian.Uint64(msg[6+8:])
			if seq >= uint64(len(p.due)) {
				upErr = fmt.Errorf("relay: FRAME %d beyond the plan's %d", seq, len(p.due))
				continue
			}
			if d := time.Until(p.due[seq]); d > 0 {
				select {
				case <-time.After(d):
				case <-quit:
					upErr = errors.New("relay: closed")
					continue
				}
			}
			p.sent[seq] = time.Now()
		}
		if _, err := server.Write(msg); err != nil {
			upErr = err
		}
	}
	if tc, ok := server.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	if upErr != nil {
		server.Close()
	}
	wg.Wait()
	if upErr != nil {
		p.err = upErr
	} else if downErr != nil {
		p.err = downErr
	}
}

func isClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF)
}
