// Package ingest is the network-facing decode service: many capture
// devices stream camera frames over TCP to one process that decodes
// them on a small set of shared pipeline.Pipeline shards.
//
// The wire protocol is deliberately dependency-free: length-prefixed
// binary messages with a one-byte version and type, over any
// io.ReadWriter (TCP in production, net.Pipe in tests).
//
//	[u32 length | big-endian] [ver u8] [type u8] [body ...]
//
// where length covers ver+type+body. A session is one connection:
//
//	device ─ HELLO ─▶ server          (link parameters + device id)
//	device ◀─ WELCOME ─ server        (session id, shard, cached calibration)
//	device ─ FRAME* ─▶ server         (seq-stamped captured frames)
//	device ◀─ ACK / SHED ─ server     (per-frame outcome, async)
//	device ◀─ BLOCK* ─ server         (decoded blocks, capture order)
//	device ─ BYE ─▶ server
//	device ◀─ STATS ─ server          (final session accounting)
//
// Frames travel losslessly at the sensor's quantization width: the
// camera stores pixel component v = k/(2^QuantBits-1) for an integer
// level k, so the codec sends k (1 byte per component when QuantBits
// ≤ 8, 2 bytes otherwise) and the decoder looks k up in a table built
// with the sensor's own division, reproducing the exact float64 the
// simulated sensor produced. Decoded output is therefore
// byte-identical to decoding the original frames in-process — the
// property the loadgen digest check enforces.
package ingest

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"colorbars/internal/camera"
	"colorbars/internal/colorspace"
)

// wireVersion is the protocol version byte every message carries.
const wireVersion = 1

// Message types.
const (
	msgHello   = 1 // device → server: link parameters
	msgWelcome = 2 // server → device: session grant
	msgFrame   = 3 // device → server: one captured frame
	msgAck     = 4 // server → device: frame decoded
	msgShed    = 5 // server → device: frame refused by admission control
	msgBlock   = 6 // server → device: one decoded block
	msgBye     = 7 // device → server: end of stream
	msgStats   = 8 // server → device: final accounting
)

// Shed reasons carried by SHED messages.
const (
	// ShedTokens means the service-wide token bucket was empty: the
	// aggregate frame rate exceeds the provisioned decode rate.
	ShedTokens = 1
	// ShedQueue means this session's pipeline input queue was full:
	// the decode lane is not keeping up with this device.
	ShedQueue = 2
)

// maxMessageSize bounds one wire message. The largest legitimate
// message is a FRAME from a high-resolution profile (rows×cols×3
// pixel components at up to 2 bytes each plus the fixed header);
// 16 MiB leaves generous headroom while still rejecting a corrupt or
// hostile length prefix before allocating.
const maxMessageSize = 16 << 20

// writeMessage frames and writes one message.
func writeMessage(w io.Writer, typ byte, body []byte) error {
	n := 2 + len(body)
	if n > maxMessageSize {
		return fmt.Errorf("ingest: message type %d too large (%d bytes)", typ, n)
	}
	hdr := []byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n), wireVersion, typ}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// msgLimit is the largest body a reader accepts for one message type.
type msgLimit struct {
	typ     byte
	maxBody int
}

// The message types each reader accepts next, with their largest
// bodies. readMessage refuses any other type, and any longer body, at
// the 6-byte header, before it allocates the body, so a hostile length
// prefix cannot make a connection allocate and hold a buffer its
// message type never needs.
var (
	// A server's first message is a HELLO: the id length byte, a
	// device id of at most 255 bytes, the order byte and five float64
	// link parameters (Hello.encode).
	helloMsgs = []msgLimit{{msgHello, 1 + 255 + 1 + 5*8}}
	// After its WELCOME, a server takes FRAMEs and an empty BYE.
	sessionMsgs = []msgLimit{{msgFrame, maxMessageSize - 2}, {msgBye, 0}}
	// A client takes a WELCOME, then the server's session traffic.
	welcomeMsgs = []msgLimit{{msgWelcome, maxMessageSize - 2}}
	serverMsgs  = []msgLimit{
		{msgAck, maxMessageSize - 2}, {msgShed, maxMessageSize - 2},
		{msgBlock, maxMessageSize - 2}, {msgStats, maxMessageSize - 2},
	}
)

// readMessage reads one framed message, enforcing the version, the
// size bound and the caller's accepted types and body sizes before
// allocating the body. The header and body reuse buf's storage when it
// is large enough (allocating only to grow it), so a caller that
// passes each returned body back in reads a whole connection through
// one buffer; a body is valid only until the next call that reuses it.
func readMessage(r io.Reader, buf []byte, accept []msgLimit) (typ byte, body []byte, err error) {
	const hdrLen = 6
	if cap(buf) < hdrLen {
		buf = make([]byte, hdrLen)
	}
	hdr := buf[:hdrLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	if n < 2 || n > maxMessageSize {
		return 0, nil, fmt.Errorf("ingest: message length %d out of range", n)
	}
	if hdr[4] != wireVersion {
		return 0, nil, fmt.Errorf("ingest: protocol version %d, want %d", hdr[4], wireVersion)
	}
	typ = hdr[5]
	limit := -1
	for _, l := range accept {
		if l.typ == typ {
			limit = l.maxBody
		}
	}
	if limit < 0 {
		return 0, nil, fmt.Errorf("ingest: unexpected message type %d", typ)
	}
	if n-2 > limit {
		return 0, nil, fmt.Errorf("ingest: message type %d of %d bytes, at most %d accepted", typ, n-2, limit)
	}
	if cap(buf) < n-2 {
		buf = make([]byte, n-2)
	}
	body = buf[:n-2]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return typ, body, nil
}

// Hello is the session request: the device identifies itself and
// declares every link parameter the server needs to construct a
// matching receiver (constellation, rates, and the loss ratio the
// erasure code was sized for).
type Hello struct {
	DeviceID      string
	Order         int
	SymbolRate    float64
	WhiteFraction float64
	DataFraction  float64
	FrameRate     float64
	LossRatio     float64
}

func (h Hello) encode() ([]byte, error) {
	if len(h.DeviceID) == 0 || len(h.DeviceID) > 255 {
		return nil, fmt.Errorf("ingest: device id length %d out of [1,255]", len(h.DeviceID))
	}
	if h.Order < 1 || h.Order > 255 {
		return nil, fmt.Errorf("ingest: order %d out of range", h.Order)
	}
	out := make([]byte, 0, 2+len(h.DeviceID)+5*8)
	out = append(out, byte(len(h.DeviceID)))
	out = append(out, h.DeviceID...)
	out = append(out, byte(h.Order))
	for _, f := range []float64{h.SymbolRate, h.WhiteFraction, h.DataFraction, h.FrameRate, h.LossRatio} {
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(f))
	}
	return out, nil
}

func decodeHello(b []byte) (Hello, error) {
	if len(b) < 1 {
		return Hello{}, fmt.Errorf("ingest: empty HELLO")
	}
	idLen := int(b[0])
	want := 1 + idLen + 1 + 5*8
	if idLen == 0 || len(b) != want {
		return Hello{}, fmt.Errorf("ingest: HELLO length %d, want %d", len(b), want)
	}
	h := Hello{DeviceID: string(b[1 : 1+idLen]), Order: int(b[1+idLen])}
	if h.Order < 1 {
		return Hello{}, fmt.Errorf("ingest: HELLO order %d out of range", h.Order)
	}
	off := 2 + idLen
	for _, dst := range []*float64{&h.SymbolRate, &h.WhiteFraction, &h.DataFraction, &h.FrameRate, &h.LossRatio} {
		*dst = math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
		off += 8
	}
	return h, nil
}

// Welcome is the session grant. When the server's calibration cache
// held a live snapshot for the device, CalSnapshot carries its
// serialized bytes — both so the device knows it skipped
// recalibration and so a verifying client can seed its own reference
// receiver identically.
type Welcome struct {
	SessionID   uint64
	Shard       int
	CalSnapshot []byte // nil on a cache miss
}

func (w Welcome) encode() []byte {
	out := make([]byte, 0, 8+4+2+len(w.CalSnapshot))
	out = binary.BigEndian.AppendUint64(out, w.SessionID)
	out = binary.BigEndian.AppendUint32(out, uint32(w.Shard))
	out = binary.BigEndian.AppendUint16(out, uint16(len(w.CalSnapshot)))
	return append(out, w.CalSnapshot...)
}

func decodeWelcome(b []byte) (Welcome, error) {
	if len(b) < 14 {
		return Welcome{}, fmt.Errorf("ingest: WELCOME truncated (%d bytes)", len(b))
	}
	w := Welcome{
		SessionID: binary.BigEndian.Uint64(b),
		Shard:     int(binary.BigEndian.Uint32(b[8:])),
	}
	n := int(binary.BigEndian.Uint16(b[12:]))
	if len(b) != 14+n {
		return Welcome{}, fmt.Errorf("ingest: WELCOME length %d, want %d", len(b), 14+n)
	}
	if n > 0 {
		w.CalSnapshot = append([]byte(nil), b[14:]...)
	}
	return w, nil
}

// Ack reports one frame fully decoded, with its submit-to-decode
// latency in microseconds.
type Ack struct {
	Seq       uint64
	LatencyUs uint32
}

func (a Ack) encode() []byte {
	out := make([]byte, 12)
	binary.BigEndian.PutUint64(out, a.Seq)
	binary.BigEndian.PutUint32(out[8:], a.LatencyUs)
	return out
}

func decodeAck(b []byte) (Ack, error) {
	if len(b) != 12 {
		return Ack{}, fmt.Errorf("ingest: ACK length %d, want 12", len(b))
	}
	return Ack{Seq: binary.BigEndian.Uint64(b), LatencyUs: binary.BigEndian.Uint32(b[8:])}, nil
}

// Shed reports one frame refused by admission control (reason is one
// of the Shed* constants). The frame was never submitted: to the
// decode path it is indistinguishable from an inter-frame gap.
type Shed struct {
	Seq    uint64
	Reason byte
}

func (s Shed) encode() []byte {
	out := make([]byte, 9)
	binary.BigEndian.PutUint64(out, s.Seq)
	out[8] = s.Reason
	return out
}

func decodeShed(b []byte) (Shed, error) {
	if len(b) != 9 {
		return Shed{}, fmt.Errorf("ingest: SHED length %d, want 9", len(b))
	}
	return Shed{Seq: binary.BigEndian.Uint64(b), Reason: b[8]}, nil
}

// Block is one decoded block, in strict capture order.
type Block struct {
	Recovered bool
	Data      []byte
}

func (bl Block) encode() []byte {
	out := make([]byte, 1, 1+len(bl.Data))
	if bl.Recovered {
		out[0] = 1
	}
	return append(out, bl.Data...)
}

func decodeBlock(b []byte) (Block, error) {
	if len(b) < 1 {
		return Block{}, fmt.Errorf("ingest: empty BLOCK")
	}
	if b[0] > 1 {
		return Block{}, fmt.Errorf("ingest: BLOCK flag %d, want 0 or 1", b[0])
	}
	bl := Block{Recovered: b[0] == 1}
	if len(b) > 1 {
		bl.Data = append([]byte(nil), b[1:]...)
	}
	return bl, nil
}

// Stats is the session's final accounting, sent in response to BYE
// after the decode lane drained.
type Stats struct {
	FramesIn   uint64 // frames received on the wire
	Admitted   uint64 // frames submitted to the pipeline
	ShedTokens uint64
	ShedQueue  uint64
	Blocks     uint64 // blocks emitted (recovered or not)
	BlocksOK   uint64 // blocks RS decoding recovered
	CalCached  bool   // the session ended with its calibration cached
}

func (s Stats) encode() []byte {
	out := make([]byte, 0, 6*8+1)
	for _, v := range []uint64{s.FramesIn, s.Admitted, s.ShedTokens, s.ShedQueue, s.Blocks, s.BlocksOK} {
		out = binary.BigEndian.AppendUint64(out, v)
	}
	if s.CalCached {
		return append(out, 1)
	}
	return append(out, 0)
}

func decodeStats(b []byte) (Stats, error) {
	if len(b) != 6*8+1 {
		return Stats{}, fmt.Errorf("ingest: STATS length %d, want %d", len(b), 6*8+1)
	}
	if b[48] > 1 {
		return Stats{}, fmt.Errorf("ingest: STATS flag %d, want 0 or 1", b[48])
	}
	var s Stats
	for i, dst := range []*uint64{&s.FramesIn, &s.Admitted, &s.ShedTokens, &s.ShedQueue, &s.Blocks, &s.BlocksOK} {
		*dst = binary.BigEndian.Uint64(b[8*i:])
	}
	s.CalCached = b[48] == 1
	return s, nil
}

// frameHeaderSize is the fixed prefix of an encoded frame body
// (before the session/seq stamp is counted): rows u32 | cols u32 |
// start f64 | exposure f64 | iso f64 | rowTime f64 | quantBits u8.
const frameHeaderSize = 4 + 4 + 4*8 + 1

// levelTables holds one table per quantization width q in [1,16],
// each built on first use.
var levelTables [17]struct {
	once sync.Once
	t    []float64
}

// levels returns the width-q level table: levels(q)[k] is
// k/(2^q−1) for every level k. Each entry comes from the same float64
// division the camera's ADC model performs (math.Round yields the
// integer k as a float64, then divides by the same maxLevel), and
// IEEE division is correctly rounded, so a lookup returns bit for bit
// the value the sensor stored. A table of at most 8 bits keeps 256
// entries of capacity, so decode can index it by byte unchecked.
func levels(q int) []float64 {
	lt := &levelTables[q]
	lt.once.Do(func() {
		maxLevel := float64(uint32(1)<<q - 1)
		lt.t = make([]float64, 1<<q, max(1<<q, 256))
		for k := range lt.t {
			lt.t[k] = float64(k) / maxLevel
		}
	})
	return lt.t
}

// gridLevel returns the level k with t[k] == v, or -1 when v is off
// the grid t spans (maxLevel is len(t)-1). For a grid value v·maxLevel
// lands on (or within rounding of) k, so int(v·maxLevel+0.5) names its
// level; the table compare then accepts exactly the values the sensor
// can produce, the same set the rule v == math.Round(v·maxLevel)/maxLevel
// accepts (−0 included). NaN, ±Inf and out-of-range values convert to
// an index outside the table or fail the compare.
func gridLevel(t []float64, maxLevel, v float64) int {
	k := int(v*maxLevel + 0.5)
	if uint(k) >= uint(len(t)) || t[k] != v {
		return -1
	}
	return k
}

// encodeFrame appends the lossless wire form of f at the device's
// quantization width. It errors when a pixel component is off the
// quantization grid (a frame that never went through the simulated
// sensor, or a quantBits mismatch) — silently rounding would break
// the byte-identical-decode guarantee.
func encodeFrame(dst []byte, sessionID, seq uint64, f *camera.Frame, quantBits int) ([]byte, error) {
	if quantBits < 1 || quantBits > 16 {
		return nil, fmt.Errorf("ingest: quantBits %d out of [1,16]", quantBits)
	}
	if f.Rows <= 0 || f.Cols <= 0 || len(f.Pix) != f.Rows*f.Cols {
		return nil, fmt.Errorf("ingest: frame geometry %dx%d with %d pixels", f.Rows, f.Cols, len(f.Pix))
	}
	t := levels(quantBits)
	maxLevel := float64(len(t) - 1)
	dst = binary.BigEndian.AppendUint64(dst, sessionID)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.Rows))
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.Cols))
	for _, v := range []float64{f.Start, f.Exposure, f.ISO, f.RowTime} {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = append(dst, byte(quantBits))
	per := pixelBytes(quantBits)
	start := len(dst)
	dst = slices.Grow(dst, len(f.Pix)*per)[:start+len(f.Pix)*per]
	out := dst[start:]
	// One loop per wire width keeps the per-pixel path branch-free.
	if per == 3 {
		for i, p := range f.Pix {
			r, g, b := gridLevel(t, maxLevel, p.R), gridLevel(t, maxLevel, p.G), gridLevel(t, maxLevel, p.B)
			if r|g|b < 0 {
				return nil, offGrid(i, p, quantBits)
			}
			o := out[3*i : 3*i+3 : 3*i+3]
			o[0], o[1], o[2] = byte(r), byte(g), byte(b)
		}
		return dst, nil
	}
	for i, p := range f.Pix {
		r, g, b := gridLevel(t, maxLevel, p.R), gridLevel(t, maxLevel, p.G), gridLevel(t, maxLevel, p.B)
		if r|g|b < 0 {
			return nil, offGrid(i, p, quantBits)
		}
		o := out[6*i : 6*i+6 : 6*i+6]
		o[0], o[1] = byte(r>>8), byte(r)
		o[2], o[3] = byte(g>>8), byte(g)
		o[4], o[5] = byte(b>>8), byte(b)
	}
	return dst, nil
}

func offGrid(i int, p colorspace.RGB, quantBits int) error {
	return fmt.Errorf("ingest: pixel %d %v off the %d-bit quantization grid", i, p, quantBits)
}

// pixelBytes is the wire size of one pixel at a quantization width:
// three 1-byte levels up to 8 bits, three 2-byte levels above.
func pixelBytes(quantBits int) int {
	if quantBits > 8 {
		return 6
	}
	return 3
}

// decodeFrame parses a FRAME body into a freshly allocated frame (see
// decodeFrameInto).
func decodeFrame(b []byte) (sessionID, seq uint64, f *camera.Frame, err error) {
	f = new(camera.Frame)
	if sessionID, seq, err = decodeFrameInto(b, f); err != nil {
		return 0, 0, nil, err
	}
	return sessionID, seq, f, nil
}

// decodeFrameInto parses a FRAME body into f, reconstructing
// bit-identical float64 pixels by looking each level up in the
// sensor's level table. Every field of f is overwritten and f.Pix is
// resliced to Rows·Cols, reusing its storage when the capacity
// suffices, so a frame recycled from a larger or different capture
// carries nothing stale. A FRAME whose timing no receiver can use
// (camera.Frame.TimingValid: a RowTime that is not finite and
// positive, an Exposure that is not finite and non-negative) is an
// error. On error f's contents are unspecified.
func decodeFrameInto(b []byte, f *camera.Frame) (sessionID, seq uint64, err error) {
	if len(b) < 16+frameHeaderSize {
		return 0, 0, fmt.Errorf("ingest: FRAME truncated (%d bytes)", len(b))
	}
	sessionID = binary.BigEndian.Uint64(b)
	seq = binary.BigEndian.Uint64(b[8:])
	b = b[16:]
	rows, cols := binary.BigEndian.Uint32(b), binary.BigEndian.Uint32(b[4:])
	quantBits := int(b[40])
	if quantBits < 1 || quantBits > 16 {
		return 0, 0, fmt.Errorf("ingest: quantBits %d out of [1,16]", quantBits)
	}
	// The product of two u32 fields cannot overflow a u64; as an int
	// it can wrap negative and slip past a signed bound.
	const maxPixels = maxMessageSize / 3
	if rows == 0 || cols == 0 || uint64(rows)*uint64(cols) > maxPixels {
		return 0, 0, fmt.Errorf("ingest: frame geometry %dx%d out of range", rows, cols)
	}
	n := int(rows) * int(cols)
	per := pixelBytes(quantBits)
	px := b[frameHeaderSize:]
	if len(px) != n*per {
		return 0, 0, fmt.Errorf("ingest: FRAME pixel payload %d bytes, want %d", len(px), n*per)
	}
	hdr := camera.Frame{
		Rows:     int(rows),
		Cols:     int(cols),
		Start:    math.Float64frombits(binary.BigEndian.Uint64(b[8:])),
		Exposure: math.Float64frombits(binary.BigEndian.Uint64(b[16:])),
		ISO:      math.Float64frombits(binary.BigEndian.Uint64(b[24:])),
		RowTime:  math.Float64frombits(binary.BigEndian.Uint64(b[32:])),
	}
	if !hdr.TimingValid() {
		return 0, 0, fmt.Errorf("ingest: FRAME exposure %v s, row time %v s out of range", hdr.Exposure, hdr.RowTime)
	}
	pix := f.Pix
	if cap(pix) < n {
		pix = make([]colorspace.RGB, n)
	}
	pix = pix[:n]
	hdr.Pix = pix
	*f = hdr
	t := levels(quantBits)
	// Levels are below len(t) = 2^quantBits exactly when their OR is.
	// One loop per wire width keeps the per-pixel path branch-free.
	if per == 3 {
		// The limit check keeps levels out of the zero padding.
		t8 := (*[256]float64)(t[:256])
		for i := range pix {
			c := px[3*i : 3*i+3 : 3*i+3]
			if int(c[0]|c[1]|c[2]) >= len(t) {
				return 0, 0, overRange(int(max(c[0], c[1], c[2])), quantBits)
			}
			pix[i] = colorspace.RGB{R: t8[c[0]], G: t8[c[1]], B: t8[c[2]]}
		}
		return sessionID, seq, nil
	}
	for i := range pix {
		c := px[6*i : 6*i+6 : 6*i+6]
		r, g, bl := int(c[0])<<8|int(c[1]), int(c[2])<<8|int(c[3]), int(c[4])<<8|int(c[5])
		if r|g|bl >= len(t) {
			return 0, 0, overRange(max(r, g, bl), quantBits)
		}
		pix[i] = colorspace.RGB{R: t[r], G: t[g], B: t[bl]}
	}
	return sessionID, seq, nil
}

func overRange(level, quantBits int) error {
	return fmt.Errorf("ingest: pixel level %d exceeds %d-bit range", level, quantBits)
}
