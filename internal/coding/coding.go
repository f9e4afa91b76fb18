// Package coding implements ColorBars' error-correction sizing rules
// (paper §5): it derives the RS(n, k) parameters from the receiver's
// measured inter-frame loss and the link's modulation parameters, and
// splits byte streams into codeword-sized blocks.
//
// With a symbol rate S (sym/s), a frame rate F (frames/s), an
// inter-frame loss ratio l, a data fraction α_S (data symbols over
// data-plus-white symbols) and C bits per symbol:
//
//	F_S = (1 − l)·S/F   symbols received per frame
//	L_S = l·S/F         symbols lost per gap
//	n   = α_S·C·(F_S + L_S) bits → /8 bytes
//	k   = α_S·C·(F_S − L_S) bits → /8 bytes
//
// so the 2t = n − k parity bytes cover exactly one gap's worth of data
// bits as unknown-position errors — or twice that as erasures, which
// the ColorBars receiver exploits because the packet header tells it
// where the gap fell.
package coding

import (
	"fmt"
	"math"

	"colorbars/internal/csk"
	"colorbars/internal/packet"
	"colorbars/internal/rs"
)

// Params captures the link quantities the RS sizing depends on.
type Params struct {
	// SymbolRate is the LED's symbol frequency S in symbols/second.
	SymbolRate float64
	// FrameRate is the receiver's frame rate F in frames/second.
	FrameRate float64
	// LossRatio is the receiver's inter-frame loss ratio l in [0, 1).
	LossRatio float64
	// Order is the CSK constellation order (determines C).
	Order csk.Order
	// DataFraction is α_S: the fraction of payload slots carrying data
	// (the remainder are white illumination symbols).
	DataFraction float64
}

// Validate checks the parameters. Every float field must be finite:
// each range is tested in the form NaN fails.
func (p Params) Validate() error {
	if !(p.SymbolRate > 0 && p.SymbolRate < math.Inf(1)) {
		return fmt.Errorf("coding: symbol rate %v", p.SymbolRate)
	}
	if !(p.FrameRate > 0 && p.FrameRate < math.Inf(1)) {
		return fmt.Errorf("coding: frame rate %v", p.FrameRate)
	}
	if !(p.LossRatio >= 0 && p.LossRatio < 1) {
		return fmt.Errorf("coding: loss ratio %v outside [0, 1)", p.LossRatio)
	}
	if !p.Order.Valid() {
		return fmt.Errorf("coding: invalid order %d", int(p.Order))
	}
	if !(p.DataFraction > 0 && p.DataFraction <= 1) {
		return fmt.Errorf("coding: data fraction %v outside (0, 1]", p.DataFraction)
	}
	return nil
}

// SymbolsPerFrame returns F_S, the data symbols received per frame.
func (p Params) SymbolsPerFrame() float64 {
	return (1 - p.LossRatio) * p.SymbolRate / p.FrameRate
}

// SymbolsPerGap returns L_S, the symbols lost per inter-frame gap.
func (p Params) SymbolsPerGap() float64 {
	return p.LossRatio * p.SymbolRate / p.FrameRate
}

// CodewordBytes returns the paper's (n, k) in bytes. Both are floored
// to whole bytes and adjusted so that n − k is even (RS error
// correction capability t = (n−k)/2 must be integral) and n ≤ 255
// (GF(256) limit); k is reduced if needed to keep at least one data
// byte and enough parity.
func (p Params) CodewordBytes() (n, k int, err error) {
	if err := p.Validate(); err != nil {
		return 0, 0, err
	}
	c := float64(p.Order.BitsPerSymbol())
	fs := p.SymbolsPerFrame()
	ls := p.SymbolsPerGap()
	nBits := p.DataFraction * c * (fs + ls)
	kBits := p.DataFraction * c * (fs - ls)
	n = int(nBits / 8)
	k = int(kBits / 8)
	if n > 255 {
		// Scale down proportionally to the GF(256) limit.
		k = k * 255 / n
		n = 255
	}
	if k < 1 {
		k = 1
	}
	if k >= n {
		k = n - 2
	}
	if k < 1 || n < 3 {
		return 0, 0, fmt.Errorf("coding: link too lossy for RS sizing (n=%d, k=%d)", n, k)
	}
	// Make parity even.
	if (n-k)%2 != 0 {
		k--
	}
	if k < 1 {
		return 0, 0, fmt.Errorf("coding: link too lossy for RS sizing (n=%d, k=%d)", n, k)
	}
	return n, k, nil
}

// NewCode builds the RS code for the parameters.
func (p Params) NewCode() (*rs.Code, error) {
	n, k, err := p.CodewordBytes()
	if err != nil {
		return nil, err
	}
	return rs.New(n, k)
}

// LinkCode sizes the RS code so that one complete framed packet —
// delimiter, flag, size field, and payload slots including the white
// illumination symbols — occupies one frame-plus-gap period (the
// paper's "natural choice" of packet size, §5). This is what real
// links must use: CodewordBytes implements the paper's formula
// literally, which counts only payload bits and therefore overflows
// the frame budget once framing overhead is added.
func (p Params) LinkCode() (*rs.Code, error) {
	n, err := p.packetCodewordBytes(16)
	if err != nil {
		return nil, err
	}
	// k/n follows the paper's ratio (F_S − L_S)/(F_S + L_S) = 1 − 2l,
	// so one gap's worth of data is recoverable as unknown-position
	// errors.
	ratio := 1 - 2*p.LossRatio
	k := int(float64(n) * ratio)
	if k < 2 {
		// Very lossy or very short packets: keep at least two data
		// bytes and rely on erasure decoding, which recovers up to
		// n−k erased bytes — twice the blind-error capability the
		// paper's ratio provisions for.
		k = 2
	}
	if k > n-2 {
		k = n - 2
	}
	// Make parity even, preferring to grow k (shrinking parity by one)
	// so short codes keep at least the minimum data bytes.
	if (n-k)%2 != 0 {
		if k+1 <= n-2 {
			k++
		} else {
			k--
		}
	}
	if k < 1 || n < 4 {
		return nil, fmt.Errorf("coding: link too lossy for packet-sized RS code (n=%d, k=%d)", n, k)
	}
	return rs.New(n, k)
}

// packetCodewordBytes finds the codeword size n (bytes) for packets
// spanning whole frame periods, preferring the fewest periods whose
// codeword reaches minN bytes. At low symbol rates one frame+gap holds
// too few symbols for a useful code once the header is paid; each
// extra period adds one more inter-frame gap per packet, which the
// receiver handles by searching the loss split
// (packet.MaxGapsPerPacket bounds it).
func (p Params) packetCodewordBytes(minN int) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	// Header: delimiter+flag plus the white-separated size field
	// (nSize data symbols interleaved with nSize separator whites).
	header := float64(len(packet.DataPrefix()) + 2*packet.SizeSymbols(p.Order))
	whiteFraction := 1 - p.DataFraction
	c := p.Order.BitsPerSymbol()
	var n, dataSyms int
	framePeriods := 0
	for periods := 1; periods <= packet.MaxGapsPerPacket; periods++ {
		budget := float64(periods) * p.SymbolRate / p.FrameRate
		slotBudget := int(budget - header)
		if slotBudget < 4 {
			continue
		}
		dataSyms = packet.DataSlots(slotBudget, whiteFraction)
		n = dataSyms * c / 8
		framePeriods = periods
		if n >= minN {
			break
		}
	}
	if framePeriods == 0 || n < 4 {
		return 0, fmt.Errorf("coding: symbol rate %v cannot fit a packet (header %v symbols)", p.SymbolRate, header)
	}
	if n > 255 {
		n = 255
	}
	return n, nil
}

// LinkCodeErasure sizes the RS code like LinkCode but provisions
// parity for one gap's worth of loss as *erasures* rather than
// unknown-position errors: the ColorBars receiver learns the loss
// positions from the packet header, and erasure decoding recovers
// n−k erased bytes instead of (n−k)/2 errors. The code rate improves
// from 1−2l to roughly 1−l, with a small extra margin for stray
// demodulation errors. Compare the two sizings with the erasure
// ablation bench.
func (p Params) LinkCodeErasure() (*rs.Code, error) {
	// Prefer codewords of at least 32 bytes so the margins below leave
	// useful data capacity; low symbol rates span several frame
	// periods (each adds a gap the receiver must search).
	n, err := p.packetCodewordBytes(32)
	if err != nil {
		return nil, err
	}
	// errorMargin covers what the pure-erasure budget misses: lost
	// symbol runs erase one extra byte at each boundary they straddle,
	// partial symbols at the frame edges add a couple more erased
	// slots, speculative multi-gap decode attempts reserve 4 bytes of
	// verification slack, and stray demodulation errors cost two
	// parity bytes each (the n/12 term).
	errorMargin := 8 + n/12
	k := int(float64(n)*(1-p.LossRatio)) - errorMargin
	if k < 2 {
		k = 2
	}
	if k > n-2 {
		k = n - 2
	}
	if (n-k)%2 != 0 {
		if k+1 <= n-2 {
			k++
		} else {
			k--
		}
	}
	if k < 1 {
		return nil, fmt.Errorf("coding: link too lossy for erasure-sized RS code (n=%d)", n)
	}
	return rs.New(n, k)
}

// Blocker splits a byte stream into k-byte blocks (zero-padding the
// final block) and encodes each into an n-byte codeword, and joins
// decoded blocks back together.
type Blocker struct {
	code *rs.Code
}

// NewBlocker wraps an RS code for stream blocking.
func NewBlocker(code *rs.Code) *Blocker { return &Blocker{code: code} }

// Code returns the underlying RS code.
func (b *Blocker) Code() *rs.Code { return b.code }

// NumBlocks returns how many codewords carry a message of msgLen
// bytes.
func (b *Blocker) NumBlocks(msgLen int) int {
	k := b.code.K()
	return (msgLen + k - 1) / k
}

// Encode splits msg into blocks and RS-encodes each. The final block
// is zero-padded; callers carry the true message length out of band
// (ColorBars applications frame their own content).
func (b *Blocker) Encode(msg []byte) ([][]byte, error) {
	if len(msg) == 0 {
		return nil, fmt.Errorf("coding: empty message")
	}
	k := b.code.K()
	blocks := make([][]byte, 0, b.NumBlocks(len(msg)))
	for off := 0; off < len(msg); off += k {
		end := off + k
		block := make([]byte, k)
		if end > len(msg) {
			copy(block, msg[off:])
		} else {
			copy(block, msg[off:end])
		}
		cw, err := b.code.Encode(block)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, cw)
	}
	return blocks, nil
}

// Decode RS-decodes each codeword (with optional per-block erasures)
// and concatenates the data, trimming to msgLen bytes.
func (b *Blocker) Decode(codewords [][]byte, erasures [][]int, msgLen int) ([]byte, error) {
	if erasures != nil && len(erasures) != len(codewords) {
		return nil, fmt.Errorf("coding: %d erasure lists for %d codewords", len(erasures), len(codewords))
	}
	out := make([]byte, 0, len(codewords)*b.code.K())
	for i, cw := range codewords {
		var eras []int
		if erasures != nil {
			eras = erasures[i]
		}
		buf := append([]byte(nil), cw...)
		data, err := b.code.Decode(buf, eras)
		if err != nil {
			return nil, fmt.Errorf("coding: block %d: %w", i, err)
		}
		out = append(out, data...)
	}
	if msgLen > len(out) {
		return nil, fmt.Errorf("coding: message length %d exceeds decoded %d", msgLen, len(out))
	}
	return out[:msgLen], nil
}
