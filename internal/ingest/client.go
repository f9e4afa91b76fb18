package ingest

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"colorbars/internal/camera"
)

// SessionResult is everything one device session got back from the
// service: per-frame outcomes, the decoded block stream in capture
// order, the server's final accounting, and the session grant.
type SessionResult struct {
	Welcome Welcome
	Stats   Stats
	// AckLatencyUs holds each acknowledged frame's submit-to-decode
	// latency, keyed by wire sequence.
	AckLatencyUs map[uint64]uint32
	// Shed holds the refused frames' shed reasons, keyed by wire
	// sequence. A frame appears in exactly one of AckLatencyUs / Shed.
	Shed map[uint64]byte
	// Blocks is the session's decoded output, in capture order.
	Blocks []Block
}

// CalHit reports whether the server seeded this session from its
// calibration cache.
func (r *SessionResult) CalHit() bool { return len(r.Welcome.CalSnapshot) > 0 }

// RunSession dials the service, streams frames as one device session,
// and collects every response until the final STATS. Frames are
// pipelined: the writer never waits for acknowledgements, so the
// submit rate is bounded by the network and the server's admission
// control, not the round trip.
//
// quantBits must match the capturing profile's ADC depth — the wire
// codec is lossless only on the sensor's quantization grid.
func RunSession(addr string, hello Hello, frames []*camera.Frame, quantBits int) (*SessionResult, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return runSessionConn(conn, hello, frames, quantBits)
}

// runSessionConn is RunSession on an established connection (tests
// drive it over net.Pipe).
func runSessionConn(conn net.Conn, hello Hello, frames []*camera.Frame, quantBits int) (*SessionResult, error) {
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)

	helloBody, err := hello.encode()
	if err != nil {
		return nil, err
	}
	if err := writeMessage(bw, msgHello, helloBody); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	_, body, err := readMessage(br, nil, welcomeMsgs)
	if err != nil {
		return nil, fmt.Errorf("ingest: session rejected: %w", err)
	}
	welcome, err := decodeWelcome(body)
	if err != nil {
		return nil, err
	}

	res := &SessionResult{
		Welcome:      welcome,
		AckLatencyUs: map[uint64]uint32{},
		Shed:         map[uint64]byte{},
	}

	// Reader: collect ACK/SHED/BLOCK until STATS closes the session.
	var (
		readerWG  sync.WaitGroup
		readerErr error
	)
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		var buf []byte
		for {
			typ, body, err := readMessage(br, buf, serverMsgs)
			if err != nil {
				readerErr = err
				return
			}
			buf = body
			switch typ {
			case msgAck:
				a, err := decodeAck(body)
				if err != nil {
					readerErr = err
					return
				}
				res.AckLatencyUs[a.Seq] = a.LatencyUs
			case msgShed:
				sh, err := decodeShed(body)
				if err != nil {
					readerErr = err
					return
				}
				res.Shed[sh.Seq] = sh.Reason
			case msgBlock:
				bl, err := decodeBlock(body)
				if err != nil {
					readerErr = err
					return
				}
				res.Blocks = append(res.Blocks, bl)
			case msgStats:
				res.Stats, readerErr = decodeStats(body)
				return
			}
		}
	}()

	var writeErr error
	buf := make([]byte, 0, 1<<16)
	for i, f := range frames {
		buf, err = encodeFrame(buf[:0], welcome.SessionID, uint64(i), f, quantBits)
		if err != nil {
			writeErr = err
			break
		}
		if err := writeMessage(bw, msgFrame, buf); err != nil {
			writeErr = err
			break
		}
	}
	if writeErr == nil {
		if err := writeMessage(bw, msgBye, nil); err != nil {
			writeErr = err
		} else {
			writeErr = bw.Flush()
		}
	}
	readerWG.Wait()
	if writeErr != nil {
		return res, writeErr
	}
	return res, readerErr
}
