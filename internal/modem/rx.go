package modem

import (
	"fmt"
	"math"
	"slices"

	"colorbars/internal/camera"
	"colorbars/internal/cie"
	"colorbars/internal/colorspace"
	"colorbars/internal/csk"
	"colorbars/internal/equalize"
	"colorbars/internal/linkstats"
	"colorbars/internal/packet"
	"colorbars/internal/rs"
	"colorbars/internal/telemetry"
)

// RxConfig configures a ColorBars receiver.
type RxConfig struct {
	// Order is the CSK constellation order in use on the link.
	Order csk.Order
	// SymbolRate is the transmitter's symbol frequency in Hz; the
	// receiver needs it to convert band widths into symbol counts.
	SymbolRate float64
	// WhiteFraction is the link's white illumination fraction (needed
	// to reconstruct the kinds of slots lost in the gap).
	WhiteFraction float64
	// Code is the link's Reed-Solomon code.
	Code *rs.Code
	// Triangle is the transmitter's constellation triangle, used to
	// build the factory constellation the receiver bootstraps its
	// symbol classification from. The zero value means cie.SRGBTriangle.
	Triangle cie.Triangle
	// UseFactoryReferences makes the receiver demodulate against the
	// constellation's ideal colors instead of waiting for calibration
	// packets (the ablation baseline for §6; real receivers leave this
	// false).
	UseFactoryReferences bool
	// NoErasureDecoding disables the erasure-position hints derived
	// from the packet header, forcing the RS decoder to treat gap
	// losses as unknown-position errors (an ablation: erasure decoding
	// doubles the recoverable loss).
	NoErasureDecoding bool
	// ReceiverOptimized must match the transmitter's setting (see
	// TxConfig.ReceiverOptimized).
	ReceiverOptimized bool
	// Telemetry receives the receiver's stage spans and counters (see
	// DESIGN.md, "Observability", for the rx.* taxonomy). Nil gives
	// the receiver a private registry, so Stats and Snapshot always
	// work and concurrent receivers never share counters.
	Telemetry *telemetry.Registry
	// SelfHeal tunes the receiver's resync and recalibration state
	// machine (see DESIGN.md §10). The zero value enables it with
	// conservative defaults that never fire on a healthy link.
	SelfHeal SelfHealConfig
	// LinkStats, when non-nil, receives link-quality evidence —
	// classification margins, RS correction load, calibration drift,
	// block outcomes — and serves LinkHealth snapshots (DESIGN.md
	// §11). Nil disables the instrumentation with no hot-path cost.
	LinkStats *linkstats.Collector
	// TrackAnnouncedRung records modulation-ladder rungs announced by
	// transmitter calibration metadata into LinkStats, so link reports
	// and /debug/link show the operating rung even on receivers that
	// never retune (the rx tool's -adapt flag). Receivers driven by the
	// linkadapt session leave this off — the session records ground
	// truth itself at each committed switch.
	TrackAnnouncedRung bool
	// DisableEqualizer turns off the online channel equalizer
	// (internal/equalize) that corrects received colors into the
	// reference frame before classification — the ablation baseline for
	// the dense-constellation experiments. Real receivers leave this
	// false: the equalizer is what keeps 64- and 256-point
	// constellations decodable under AWB and ambient drift, and it is
	// exactly identity until the first calibration packet anchors it.
	DisableEqualizer bool
}

// SelfHealConfig tunes the receiver's recovery state machine. All
// thresholds default when zero; the defaults are deliberately
// conservative so a healthy link — even a noisy one — never trips
// them, keeping the happy-path decode bit-identical with and without
// self-healing.
type SelfHealConfig struct {
	// Disable turns the state machine off entirely (the ablation
	// baseline; real receivers leave this false).
	Disable bool
	// CollapseFrames is how many consecutive frames may discard
	// deframe fragments without completing a single packet before the
	// receiver declares segmentation collapse and resyncs. Default 45.
	// The default must exceed the link's worst *healthy* no-packet
	// stretch: when the packet period is near a multiple of the frame
	// period, the inter-frame gap can land on packet headers for many
	// consecutive frames until the transmitter's de-phasing pads
	// restore alignment (measured up to ~27 frames on the Nexus 5
	// reference link at 2 kHz). Tighten it only on links whose packet
	// phase is known to drift faster.
	CollapseFrames int
	// DistanceTheta is the mean CIELab distance from classified data
	// symbols to their nearest reference beyond which a frame counts
	// toward the classification-blowup streak. Default 22 (normal
	// frames sit well under half that, even on the noisy Nexus 5).
	DistanceTheta float64
	// DistanceFrames is how many consecutive blown-up frames force a
	// resync with the references marked stale. Default 6.
	DistanceFrames int
	// StaleAfterFrames is how many frames may pass without an applied
	// calibration packet before the references are considered stale
	// and decoding continues in degraded mode (last-known-good
	// references) until the next valid calibration. Default 150 —
	// ~25× the default calibration interval. Only receivers that have
	// calibrated at least once age; factory-reference receivers never
	// expect calibration traffic.
	StaleAfterFrames int
}

// withDefaults resolves zero thresholds to the documented defaults.
func (c SelfHealConfig) withDefaults() SelfHealConfig {
	if c.CollapseFrames == 0 {
		c.CollapseFrames = 45
	}
	if c.DistanceTheta == 0 {
		c.DistanceTheta = 22
	}
	if c.DistanceFrames == 0 {
		c.DistanceFrames = 6
	}
	if c.StaleAfterFrames == 0 {
		c.StaleAfterFrames = 150
	}
	return c
}

// Validate checks the configuration. SymbolRate and WhiteFraction
// must be finite: each range is tested in the form NaN fails.
func (c RxConfig) Validate() error {
	if !c.Order.Valid() {
		return fmt.Errorf("modem: invalid order %d", int(c.Order))
	}
	if !(c.SymbolRate > 0 && c.SymbolRate < math.Inf(1)) {
		return fmt.Errorf("modem: symbol rate %v", c.SymbolRate)
	}
	if !(c.WhiteFraction >= 0 && c.WhiteFraction < 1) {
		return fmt.Errorf("modem: white fraction %v", c.WhiteFraction)
	}
	if c.Code == nil {
		return fmt.Errorf("modem: nil RS code")
	}
	return nil
}

// triangle returns the configured triangle, defaulting to sRGB.
func (c RxConfig) triangle() cie.Triangle {
	if (c.Triangle == cie.Triangle{}) {
		return cie.SRGBTriangle
	}
	return c.Triangle
}

// Block is one decoded Reed-Solomon block delivered by the receiver.
type Block struct {
	// Data is the recovered k-byte block (nil if decoding failed).
	Data []byte
	// Recovered reports whether RS decoding succeeded.
	Recovered bool
	// Erasures is how many payload bytes the inter-frame gap erased.
	Erasures int
	// SymbolsObserved is the number of data symbols seen on air for
	// this block (pre-RS), for throughput accounting.
	SymbolsObserved int
	// RawSymbols are the matched constellation indices before RS
	// decoding, -1 where lost — exposed for symbol-error-rate
	// measurement against the transmitted indices.
	RawSymbols []int
}

// RxStats counts receiver-side events across a session. It is a
// point-in-time view over the receiver's telemetry registry (the
// counters listed in rxCounters); the struct is kept so existing
// consumers — metrics.score, the CLI tools, tests — see stable field
// names.
type RxStats struct {
	Frames             int
	SymbolsIn          int // classified on-air symbols (all kinds)
	DataSymbolsIn      int // classified color (data) symbols
	WhiteSymbolsIn     int // classified white illumination symbols
	OffSymbolsIn       int // classified OFF symbols
	DataPackets        int
	CalibrationPackets int
	DiscardedPackets   int
	BlocksOK           int
	BlocksFailed       int
	// RejectedCalibrations counts calibration-flagged packets whose
	// body failed the plausibility check.
	RejectedCalibrations int
	// Resyncs counts times the self-heal state machine discarded
	// deframer state to re-acquire on the next delimiter.
	Resyncs int
	// StaleCalibrations counts episodes where the references aged out
	// (or were invalidated by a resync) and decoding entered degraded
	// mode until the next valid calibration packet.
	StaleCalibrations int
	// DegradedBlocks counts data blocks decoded against stale
	// (last-known-good) references.
	DegradedBlocks int
}

// String renders the stats as a one-line human-readable summary.
func (s RxStats) String() string {
	out := fmt.Sprintf(
		"frames %d · symbols %d (data %d, white %d, off %d) · packets %d data / %d cal (%d rejected) / %d discarded · blocks %d ok / %d failed",
		s.Frames, s.SymbolsIn, s.DataSymbolsIn, s.WhiteSymbolsIn, s.OffSymbolsIn,
		s.DataPackets, s.CalibrationPackets, s.RejectedCalibrations, s.DiscardedPackets,
		s.BlocksOK, s.BlocksFailed)
	if s.Resyncs > 0 || s.StaleCalibrations > 0 || s.DegradedBlocks > 0 {
		out += fmt.Sprintf(" · recovery %d resyncs / %d stale cal / %d degraded blocks",
			s.Resyncs, s.StaleCalibrations, s.DegradedBlocks)
	}
	return out
}

// rxCounters pre-resolves the receiver's counters so hot-path
// increments are a single atomic add. The names are the stable rx.*
// taxonomy documented in DESIGN.md ("Observability").
type rxCounters struct {
	frames              *telemetry.Counter // rx.frames
	symbolsIn           *telemetry.Counter // rx.symbols_in
	symbolsData         *telemetry.Counter // rx.symbols_data
	symbolsWhite        *telemetry.Counter // rx.symbols_white
	symbolsOff          *telemetry.Counter // rx.symbols_off
	packetsData         *telemetry.Counter // rx.packets_data
	packetsCalibration  *telemetry.Counter // rx.packets_calibration
	deframeDiscards     *telemetry.Counter // rx.deframe_discards
	calibrationRejected *telemetry.Counter // rx.calibration_rejected
	calibrationApplied  *telemetry.Counter // rx.calibration_applied
	calibrationSeeded   *telemetry.Counter // rx.calibration_seeded
	uncalibratedDrops   *telemetry.Counter // rx.uncalibrated_drops
	sizeFieldBad        *telemetry.Counter // rx.size_field_bad
	rsAttempts          *telemetry.Counter // rx.rs_attempts
	rsDecodeOK          *telemetry.Counter // rx.rs_decode_ok
	rsDecodeFail        *telemetry.Counter // rx.rs_decode_fail
	resyncs             *telemetry.Counter // rx.resyncs
	staleCalibrations   *telemetry.Counter // rx.stale_calibrations
	degradedBlocks      *telemetry.Counter // rx.degraded_blocks
	calMetaSeen         *telemetry.Counter // rx.cal_meta_seen
	rungSwitches        *telemetry.Counter // rx.rung_switches
}

func newRxCounters(t *telemetry.Registry) rxCounters {
	return rxCounters{
		frames:              t.Counter("rx.frames"),
		symbolsIn:           t.Counter("rx.symbols_in"),
		symbolsData:         t.Counter("rx.symbols_data"),
		symbolsWhite:        t.Counter("rx.symbols_white"),
		symbolsOff:          t.Counter("rx.symbols_off"),
		packetsData:         t.Counter("rx.packets_data"),
		packetsCalibration:  t.Counter("rx.packets_calibration"),
		deframeDiscards:     t.Counter("rx.deframe_discards"),
		calibrationRejected: t.Counter("rx.calibration_rejected"),
		calibrationApplied:  t.Counter("rx.calibration_applied"),
		calibrationSeeded:   t.Counter("rx.calibration_seeded"),
		uncalibratedDrops:   t.Counter("rx.uncalibrated_drops"),
		sizeFieldBad:        t.Counter("rx.size_field_bad"),
		rsAttempts:          t.Counter("rx.rs_attempts"),
		rsDecodeOK:          t.Counter("rx.rs_decode_ok"),
		rsDecodeFail:        t.Counter("rx.rs_decode_fail"),
		resyncs:             t.Counter("rx.resyncs"),
		staleCalibrations:   t.Counter("rx.stale_calibrations"),
		degradedBlocks:      t.Counter("rx.degraded_blocks"),
		calMetaSeen:         t.Counter("rx.cal_meta_seen"),
		rungSwitches:        t.Counter("rx.rung_switches"),
	}
}

// Receiver decodes camera frames into data blocks.
type Receiver struct {
	cfg      RxConfig
	pktCfg   packet.Config
	cons     *csk.Constellation // factory constellation
	deframer *packet.Deframer
	cls      *classifier
	refs     []colorspace.AB // current demodulation references
	haveRefs bool
	started  bool

	// eq is the online channel equalizer: received colors pass through
	// it before every nearest-reference match, and calibration packets
	// plus high-margin decoded symbols train it. Nil when
	// cfg.DisableEqualizer ablates it.
	eq *equalize.Equalizer
	// calPerm caches cons.CalibrationOrder() — the permutation undo for
	// calibration bodies — which is O(k²) to build and would otherwise
	// allocate on every calibration packet.
	calPerm []int

	// Calibration-metadata state: the last announcement decoded from a
	// calibration packet's trailing TLV region (DESIGN.md §13).
	lastCalMeta packet.CalMeta
	haveCalMeta bool

	tel *telemetry.Registry
	c   rxCounters
	ls  *linkstats.Collector // nil disables link-quality collection
	// seenDiscards tracks how much of deframer.Discarded has been
	// mirrored into the rx.deframe_discards counter.
	seenDiscards int

	// Self-heal state machine (see DESIGN.md §10). All fields are
	// mutated only on the sequential tail (ProcessAnalysis /
	// handlePacket), so the pipeline needs no extra locking.
	heal struct {
		cfg            SelfHealConfig // thresholds, defaults resolved
		collapseStreak int            // consecutive discard-only frames
		distStreak     int            // consecutive blown-up frames
		framesSinceCal int            // frames since a calibration applied
		calEver        bool           // a calibration was ever applied
		stale          bool           // references are suspect; degraded mode
	}
	distGauge *telemetry.Gauge // rx.classify_distance
	syncGauge *telemetry.Gauge // rx.sync_state (0 locked, 1 degraded)

	// Pooled per-frame buffers: classified symbols, the deframer feed
	// (gap marker + symbols), parsed packets, and margins. Reused every
	// frame so the steady-state pipeline stays allocation-free.
	symBuf    []packet.RxSymbol
	feedBuf   []packet.RxSymbol
	pktBuf    []packet.RxPacket
	marginBuf []linkstats.Margin

	// dec is the scratch-carrying RS decoder; ds is the demodulation
	// scratch. Free-lists recycle the only block-lifetime buffers —
	// Data, RawSymbols and the returned []Block — through Recycle.
	dec       *rs.Decoder
	ds        decodeScratch
	dataFree  [][]byte
	rawFree   [][]int
	blockFree [][]Block
}

// decodeScratch holds every working buffer the sequential decode tail
// needs, reused across packets. All are private to the receiver's
// single decode goroutine.
type decodeScratch struct {
	sizeIdx []int // size-field constellation indices

	// The packet's geometry, set by packetGeometry.
	layout     []bool          // reconstructed white/data slot layout
	dataBefore []int           // dataBefore[s]: data slots in layout[:s]
	observed   []packet.RxSlot // observed payload slots
	gaps       []int           // gap positions rebased past the size field
	missing    int             // slots the gaps swallowed in total
	cls        []int           // per observed slot: its constellation index, or -1 until first classified

	split    []int           // the hypothesized per-gap loss split
	order    []int           // per-gap loss candidates, most even first
	erasures []int           // the hypothesis's erased byte positions, ascending
	cw       []byte          // built (descrambled) codeword, corrected in place by Decode
	received []byte          // cw as built, before Decode: for correctionCount
	calib    []colorspace.AB // permutation-corrected calibration colors
	bounds   slotBounds      // declared slot counts that hold one codeword
	sj       splitJudge      // syndrome-domain scoring of loss guesses
}

// slotBounds caches, for one code, order and white fraction, the
// declared payload slot counts [lo, hi) whose layout holds exactly one
// codeword's data symbols: lo = SlotsForData(D), hi = SlotsForData(D+1)
// with D = SymbolsPerBytes(n). A layout's data count never falls as
// its slot count grows, so every count outside [lo, hi) holds more or
// fewer data symbols than one codeword.
type slotBounds struct {
	code   *rs.Code
	order  csk.Order
	white  float64
	lo, hi int
}

// splitJudge scores loss guesses by their RS syndromes instead of
// building each one's codeword (DESIGN.md §17). The descrambled
// codeword is the scrambler mask XOR the packed bit fields of its data
// symbols, and syndromes are linear over XOR, so a guess's syndromes
// are the mask's XOR one vector per observed segment at that segment's
// shift (see tryHypothesis). The first and last segments land the same
// way under every split of one gap placement, so they fold into base
// with the mask; the middle ones are memoized per (segment, shift).
type splitJudge struct {
	// Per code (rebuilt when the receiver's code changes).
	code     *rs.Code
	maskSynd []byte // syndromes of the scrambler mask over n bytes
	word     []byte // n-byte placing scratch, all zero between uses
	synd     []byte // the guess being scored
	spill    []byte // a segment's vector past the memo's cap

	// Per gap placement: cleared by packetGeometry and moveGap, the
	// rest set by prepareJudge at the placement's first guess.
	ready bool
	base  []byte // maskSynd ⊕ segment 0 at shift 0 ⊕ the last segment at shift missing
	memo  []byte // vector of middle segment k at shift L at (k−1)·(missing+1)+L
	have  []bool // which memo vectors are filled
}

// maxSplitMemo caps the bytes of segment syndrome vectors the split
// judge keeps (DESIGN.md §17). A chaos-4csk packet needs 3·47 vectors
// of 18 bytes, 2.5 KB; past the cap a vector is computed for each use
// and not kept, so a hostile packet costs time, not memory.
const maxSplitMemo = 16 << 10

// maxFreeBufs bounds each free-list so a pathological burst cannot pin
// unbounded memory.
const maxFreeBufs = 32

// NewReceiver builds a receiver.
func NewReceiver(cfg RxConfig) (*Receiver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cons, err := buildConstellation(cfg.Order, cfg.triangle(), cfg.ReceiverOptimized)
	if err != nil {
		return nil, err
	}
	pktCfg := packet.Config{Order: cfg.Order, WhiteFraction: cfg.WhiteFraction}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	r := &Receiver{
		cfg:       cfg,
		pktCfg:    pktCfg,
		cons:      cons,
		deframer:  packet.NewDeframer(pktCfg),
		cls:       newClassifier(),
		tel:       tel,
		c:         newRxCounters(tel),
		ls:        cfg.LinkStats,
		distGauge: tel.Gauge("rx.classify_distance"),
		syncGauge: tel.Gauge("rx.sync_state"),
		dec:       cfg.Code.NewDecoder(),
		calPerm:   cons.CalibrationOrder(),
	}
	r.heal.cfg = cfg.SelfHeal.withDefaults()
	if !cfg.DisableEqualizer {
		r.eq, err = equalize.New(equalize.Config{Points: int(cfg.Order)})
		if err != nil {
			return nil, err
		}
	}
	// The classifier always knows the factory constellation geometry —
	// it only uses it to tell white apart from data, which is a
	// public property of the standard's constellation design.
	r.cls.setDataRefs(cons.ReferenceABs())
	if cfg.UseFactoryReferences {
		r.refs = cons.ReferenceABs()
		r.haveRefs = true
		// Factory references count as a zero-drift calibration: the
		// link is ready to demodulate, so health should not report
		// "acquiring" while it waits for packets that never come.
		r.ls.RecordCalibration(0)
	}
	return r, nil
}

// Stats returns the receiver's counters as a point-in-time view over
// its telemetry registry.
func (r *Receiver) Stats() RxStats {
	r.syncDiscards()
	return RxStats{
		Frames:               int(r.c.frames.Value()),
		SymbolsIn:            int(r.c.symbolsIn.Value()),
		DataSymbolsIn:        int(r.c.symbolsData.Value()),
		WhiteSymbolsIn:       int(r.c.symbolsWhite.Value()),
		OffSymbolsIn:         int(r.c.symbolsOff.Value()),
		DataPackets:          int(r.c.packetsData.Value()),
		CalibrationPackets:   int(r.c.packetsCalibration.Value()),
		DiscardedPackets:     int(r.c.deframeDiscards.Value()),
		BlocksOK:             int(r.c.rsDecodeOK.Value()),
		BlocksFailed:         int(r.c.rsDecodeFail.Value()),
		RejectedCalibrations: int(r.c.calibrationRejected.Value()),
		Resyncs:              int(r.c.resyncs.Value()),
		StaleCalibrations:    int(r.c.staleCalibrations.Value()),
		DegradedBlocks:       int(r.c.degradedBlocks.Value()),
	}
}

// Telemetry returns the receiver's registry, for attaching a trace
// sink or publishing snapshots.
func (r *Receiver) Telemetry() *telemetry.Registry { return r.tel }

// LinkStats returns the receiver's link-quality collector (nil when
// none was configured). The collector is safe for concurrent reads —
// pipeline health probes and HTTP handlers call Health() on it while
// the decode tail feeds it.
func (r *Receiver) LinkStats() *linkstats.Collector { return r.ls }

// Snapshot captures all receiver metrics, including the stage latency
// histograms that RxStats does not carry.
func (r *Receiver) Snapshot() telemetry.Snapshot {
	r.syncDiscards()
	return r.tel.Snapshot()
}

// syncDiscards mirrors the deframer's discard count into the
// registry and returns the new discards since the previous sync. The
// deframer stays telemetry-free (it is a pure parser); the receiver
// folds its drop count into the rx.* namespace after every push.
func (r *Receiver) syncDiscards() int {
	d := r.deframer.Discarded - r.seenDiscards
	if d > 0 {
		r.c.deframeDiscards.Add(int64(d))
		r.seenDiscards = r.deframer.Discarded
	}
	return d
}

// Calibrated reports whether the receiver has demodulation references
// (from a calibration packet, or factory ones).
func (r *Receiver) Calibrated() bool { return r.haveRefs }

// eqAB routes one received color through the channel equalizer before
// a nearest-reference match. Identity when the equalizer is ablated or
// not yet anchored. Allocation-free.
func (r *Receiver) eqAB(ab colorspace.AB) colorspace.AB {
	if r.eq != nil {
		return r.eq.Apply(ab)
	}
	return ab
}

// EqualizerConfidence returns the equalizer's confidence score in
// [0,1] and whether it is active (enabled and anchored by at least one
// calibration). The link-adaptation controller gates dense-
// constellation rungs on it.
func (r *Receiver) EqualizerConfidence() (float64, bool) {
	if r.eq == nil {
		return 0, false
	}
	return r.eq.Confidence(), r.eq.Ready()
}

// validCalibration sanity-checks a calibration body. A genuine body is
// the full constellation, so all colors are pairwise distinct; a body
// parsed out of a damaged data packet is a stretch of payload symbols,
// which — drawn from the same small alphabet — virtually always
// repeats within the window and collides. Factory-agreement checks are
// deliberately avoided: strong per-device distortion is exactly what
// calibration exists to absorb, and it can legitimately fold many
// observed colors toward the same factory reference.
func (r *Receiver) validCalibration(colors []colorspace.AB) bool {
	if len(colors) != int(r.cfg.Order) {
		return false
	}
	for i, c := range colors {
		for j := i + 1; j < len(colors); j++ {
			if c.Dist(colors[j]) < 2 {
				return false
			}
		}
	}
	return true
}

// References returns a copy of the current demodulation references.
func (r *Receiver) References() []colorspace.AB {
	return append([]colorspace.AB(nil), r.refs...)
}

// CalibrationSnapshot exports the receiver's applied calibration — the
// current demodulation references — as a serializable snapshot, for a
// per-device calibration cache to carry across sessions. ok is false
// while the receiver is uncalibrated. Call it from the decode
// goroutine, or after the stream has drained; it reads the same state
// the sequential tail mutates.
func (r *Receiver) CalibrationSnapshot() (packet.CalSnapshot, bool) {
	if !r.haveRefs || len(r.refs) != int(r.cfg.Order) {
		return packet.CalSnapshot{}, false
	}
	snap := packet.CalSnapshot{
		Order:  r.cfg.Order,
		Colors: append([]colorspace.AB(nil), r.refs...),
	}
	if r.eq != nil && r.eq.Ready() {
		if blob, err := r.eq.MarshalBinary(); err == nil {
			snap.Equalizer = blob
		}
	}
	return snap, true
}

// SeedCalibration applies a previously exported snapshot as if its
// calibration packet had just decoded: the references snap in whole
// (no smoothing — there is no prior state to smooth against), the
// classifier retrains, and the self-heal machine starts a fresh
// calibration age, so seeded references go stale on the same schedule
// an over-the-air calibration would. Seed before the first frame is
// processed; a receiver that has started demodulating rejects the
// seed rather than tear up references mid-stream.
func (r *Receiver) SeedCalibration(snap packet.CalSnapshot) error {
	if r.started || r.c.frames.Value() > 0 {
		return fmt.Errorf("modem: SeedCalibration after frames were processed")
	}
	if snap.Order != r.cfg.Order {
		return fmt.Errorf("modem: calibration snapshot order %d, receiver order %d",
			snap.Order, r.cfg.Order)
	}
	if !r.validCalibration(snap.Colors) {
		return fmt.Errorf("modem: calibration snapshot fails validity (collapsed or wrong-size constellation)")
	}
	// Restore the equalizer blob before committing anything: a damaged
	// blob rejects the whole seed (RestoreBinary itself validates in
	// full before mutating, so equalizer state is untouched too). A
	// snapshot without a blob, or an ablated equalizer, seeds the
	// references alone — exactly the v1 behavior.
	if len(snap.Equalizer) > 0 && r.eq != nil {
		if err := r.eq.RestoreBinary(snap.Equalizer); err != nil {
			return fmt.Errorf("modem: calibration snapshot equalizer state: %w", err)
		}
	}
	r.refs = append(r.refs[:0], snap.Colors...)
	r.haveRefs = true
	r.cls.setDataRefs(r.refs)
	r.heal.calEver = true
	r.heal.framesSinceCal = 0
	if r.heal.stale {
		r.heal.stale = false
		r.syncGauge.Set(0)
	}
	r.ls.RecordCalibration(0)
	r.c.calibrationSeeded.Inc()
	return nil
}

// CalMeta returns the last calibration-metadata announcement decoded
// from a calibration packet's trailing TLV region, and whether one has
// been seen since the receiver was built (or since the last operating
// point switch).
func (r *Receiver) CalMeta() (packet.CalMeta, bool) {
	return r.lastCalMeta, r.haveCalMeta
}

// consumeCalMeta decodes a calibration packet's trailing metadata
// region: the classified colors are matched against the freshly
// applied references, unpacked to bytes and CRC-checked
// (packet.DecodeCalMeta). Any damage — misclassified symbols, a
// truncated region, an unknown version — silently drops the metadata;
// the calibration itself has already been applied.
func (r *Receiver) consumeCalMeta(meta []colorspace.AB) {
	if len(meta) == 0 || !r.haveRefs {
		return
	}
	bps := r.cfg.Order.BitsPerSymbol()
	nBytes := len(meta) * bps / 8
	if nBytes < 3 {
		return // below the ver+crc16 minimum: cannot be a valid blob
	}
	ds := &r.ds
	idx := ds.sizeIdx[:0]
	for _, c := range meta {
		idx = append(idx, csk.NearestAB(r.eqAB(c), r.refs))
	}
	ds.sizeIdx = idx
	raw, err := r.cfg.Order.AppendUnpack(ds.cw[:0], idx, nBytes)
	if err != nil {
		return
	}
	ds.cw = raw
	packet.ScrambleInPlace(raw) // undo the region's whitening
	m, ok := packet.DecodeCalMeta(raw)
	if !ok {
		return
	}
	r.lastCalMeta = m
	r.haveCalMeta = true
	r.c.calMetaSeen.Inc()
	// Surface announced rungs in the link report (rung history ring,
	// /debug/link) when the consumer opted in. The name is left empty:
	// ladder tables are out-of-band profile data the receiver does not
	// hold; in-band metadata carries indexes only.
	if r.cfg.TrackAnnouncedRung && m.HasRung {
		r.ls.NoteRung(m.Rung, "")
	}
}

// OperatingPoint is the per-rung subset of the link configuration: the
// parameters a modulation-ladder switch replaces while everything else
// (triangle, ablation flags, telemetry, self-heal tuning) carries over.
type OperatingPoint struct {
	Order         csk.Order
	SymbolRate    float64
	WhiteFraction float64
	Code          *rs.Code
}

// SetOperatingPoint retunes the receiver to a new modulation ladder
// rung at a packet boundary: any packet still buffered under the old
// parameters is flushed first (and returned, decoded with the old
// configuration), then the constellation, framing, deframer and RS
// decoder are rebuilt for the new point. The references are cleared —
// the old constellation's colors mean nothing on the new one — so the
// receiver re-enters the acquiring state until the first calibration
// packet at the new rung lands (transmitters always lead an epoch with
// one). Must run on the sequential decode path, between frames.
func (r *Receiver) SetOperatingPoint(p OperatingPoint) ([]Block, error) {
	cfg := r.cfg
	cfg.Order, cfg.SymbolRate, cfg.WhiteFraction, cfg.Code = p.Order, p.SymbolRate, p.WhiteFraction, p.Code
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cons, err := buildConstellation(p.Order, cfg.triangle(), cfg.ReceiverOptimized)
	if err != nil {
		return nil, err
	}
	pktCfg := packet.Config{Order: p.Order, WhiteFraction: p.WhiteFraction}
	if p.Code.N() > pktCfg.MaxPayloadBytes() {
		return nil, fmt.Errorf("modem: codeword %d bytes exceeds packet capacity %d",
			p.Code.N(), pktCfg.MaxPayloadBytes())
	}
	flushed := r.Flush()

	r.cfg = cfg
	r.cons = cons
	r.pktCfg = pktCfg
	r.deframer = packet.NewDeframer(pktCfg)
	r.seenDiscards = 0
	r.dec = p.Code.NewDecoder()
	r.started = false
	r.haveCalMeta = false
	r.calPerm = cons.CalibrationOrder()

	// The equalizer's learned correction belongs to the old
	// constellation; rebuild (or reset) it for the new geometry. The
	// first calibration packet at the new rung re-anchors it.
	if r.eq != nil {
		if r.eq.Points() == int(p.Order) {
			r.eq.Reset()
		} else if eq, err := equalize.New(equalize.Config{Points: int(p.Order)}); err == nil {
			r.eq = eq
		}
	}

	// References are per-constellation; start over from the factory
	// geometry exactly as NewReceiver does.
	r.refs = r.refs[:0]
	r.haveRefs = false
	r.cls.setDataRefs(cons.ReferenceABs())
	if cfg.UseFactoryReferences {
		r.refs = append(r.refs, cons.ReferenceABs()...)
		r.haveRefs = true
		r.ls.RecordCalibration(0)
	}

	// The self-heal machine's streaks and calibration age refer to the
	// old rung's references; restart it clean so a switch never
	// inherits a half-accumulated collapse streak or stale episode.
	r.heal.collapseStreak, r.heal.distStreak = 0, 0
	r.heal.framesSinceCal = 0
	r.heal.calEver = false
	if r.heal.stale {
		r.heal.stale = false
		r.syncGauge.Set(0)
	}
	r.c.rungSwitches.Inc()
	return flushed, nil
}

// ProcessFrame runs the full receive pipeline on one frame and returns
// any blocks that completed. Frames must be fed in capture order; the
// receiver inserts the inter-frame gap marker between consecutive
// frames automatically.
//
// It is Analyze followed by ProcessAnalysis, so every path — serial,
// the internal/pipeline worker pool, the ingest service — records the
// same span tree: rx.analyze (children rx.strip, rx.segment), then
// rx.frame (children rx.classify, rx.deframe, rx.decode). An attached
// registry thereby records where each frame's processing time — and
// each lost packet — went.
func (r *Receiver) ProcessFrame(f *camera.Frame) []Block {
	return r.ProcessAnalysis(r.Analyze(f))
}

// Analyze runs the CPU-heavy, receiver-state-independent front end on
// one frame (paper §7, Steps 1–2): row-mean Lab planes, band
// segmentation, symbol-grid fitting and the OFF-threshold fit, all on
// pooled scratch (columnar.go). It reads only the immutable link
// configuration, so it is safe to call concurrently from multiple
// goroutines on the same Receiver — this is the stage
// internal/pipeline fans out to a worker pool. Stage timings land in
// the rx.strip and rx.segment histograms under an rx.analyze parent
// span.
func (r *Receiver) Analyze(f *camera.Frame) *Analysis {
	parent := r.tel.StartSpan("rx.analyze")
	defer parent.End()
	a := getAnalysis()
	if !f.TimingValid() {
		// No band width can be derived: nothing to emit.
		return a
	}
	rowsPerSym := 1 / (r.cfg.SymbolRate * f.RowTime)
	if !(rowsPerSym >= 1) {
		// A symbol shorter than one scanline cannot form a band. A huge
		// finite RowTime lands here too, where the plan would otherwise
		// grow to about Rows·RowTime·SymbolRate symbols; from here on a
		// frame plans at most about 2·Rows.
		return a
	}
	// From 2·Rows up, every smear width segments alike: bandColor keeps
	// each band's middle row and segment's window spans the frame. The
	// clamp keeps a huge ratio (a tiny RowTime) from overflowing an
	// int there.
	smearRows := min(f.Exposure/f.RowTime, 2*float64(f.Rows))
	s := getScratch(f.Rows)

	sp := parent.StartChild("rx.strip")
	s.extractPlanes(f)
	sp.End()

	sp = parent.StartChild("rx.segment")
	bands := s.segment(rowsPerSym, smearRows)
	sp.End()

	s.planInto(a, bands, rowsPerSym)
	putScratch(s)
	return a
}

// ProcessAnalysis completes the processing of an analyzed frame:
// classification against the current (calibration-updated) references,
// symbol accounting, deframing and packet handling. Analyses must be
// fed in capture order from a single goroutine — these stages mutate
// receiver state (references, deframer buffer) and are inherently
// sequential.
//
// The Analysis is recycled into the analysis pool on return; the
// caller must not use it afterwards.
func (r *Receiver) ProcessAnalysis(a *Analysis) []Block {
	frame := r.tel.StartSpan("rx.frame")
	defer frame.End()
	r.c.frames.Inc()

	sp := frame.StartChild("rx.classify")
	r.symBuf = r.cls.emitSymbolsInto(r.symBuf[:0], a)
	sp.End()
	recycleAnalysis(a)
	syms := r.symBuf

	r.c.symbolsIn.Add(int64(len(syms)))
	var nData, nWhite, nOff int64
	for _, s := range syms {
		switch s.Kind {
		case packet.KindData:
			nData++
		case packet.KindWhite:
			nWhite++
		case packet.KindOff:
			nOff++
		}
	}
	r.c.symbolsData.Add(nData)
	r.c.symbolsWhite.Add(nWhite)
	r.c.symbolsOff.Add(nOff)

	feed := r.feedBuf[:0]
	if r.started {
		feed = append(feed, packet.RxSymbol{Kind: packet.KindGap})
	}
	r.started = true
	feed = append(feed, syms...)
	r.feedBuf = feed

	sp = frame.StartChild("rx.deframe")
	r.pktBuf = r.deframer.PushInto(feed, r.pktBuf[:0])
	pkts := r.pktBuf
	sp.End()
	discards := r.syncDiscards()

	sp = frame.StartChild("rx.decode")
	var blocks []Block
	for i := range pkts {
		var blk Block
		if r.handlePacket(pkts[i], &blk) {
			if blocks == nil {
				blocks = r.getBlockSlice()
			}
			blocks = append(blocks, blk)
		}
	}
	sp.End()
	r.observeFrameHealth(syms, len(pkts), discards)
	// One margin pass serves both consumers: linkstats evidence and the
	// equalizer's decision-directed learning (collectMargins feeds
	// high-margin symbols into eq.Observe as it goes). It runs after the
	// packet loop so a calibration packet in this frame anchors the
	// equalizer before the frame's symbols train it.
	if r.ls != nil || r.eq != nil {
		margins := r.collectMargins(syms)
		if r.ls != nil {
			r.ls.EndFrame(int(nData), margins)
		}
	}
	if r.eq != nil {
		r.eq.Tick()
	}
	return blocks
}

// marginL is the nominal lightness at which classification margins
// are evaluated: demodulation happens in the a,b plane (RxSymbol
// carries no L), so CIEDE2000 margins are computed with both the
// observed color and the references pinned to mid lightness.
const marginL = 50

// collectMargins computes per-data-symbol classification margins: the
// CIEDE2000 distance from the observed color to the winning
// (nearest-by-AB, i.e. the classification the decoder actually used)
// reference, versus the closest other reference. Only meaningful once
// references exist.
//
// Margins are evaluated at the shared nominal lightness marginL —
// DeltaE2000AB computes exactly the CIEDE2000 value of the Lab pairs
// pinned there. The runner-up search walks the classifier's
// precomputed neighbor table: exhaustive for constellations of up to
// 1+maxMarginNeighbors points, a nearest-neighbor approximation
// beyond that (margins feed observability, not decoding). The
// returned slice is scratch, reused next frame; linkstats.EndFrame
// consumes it without retaining.
//
// The same pass doubles as the equalizer's training feed: each data
// symbol's winning cell, raw color and margin pair go to eq.Observe,
// which uses high-margin symbols as decision-directed evidence of
// between-calibration drift and every symbol as a confidence sample.
func (r *Receiver) collectMargins(syms []packet.RxSymbol) []linkstats.Margin {
	if !r.haveRefs {
		return nil
	}
	margins := r.marginBuf[:0]
	for _, s := range syms {
		if s.Kind != packet.KindData {
			continue
		}
		ab := r.eqAB(s.AB)
		win := csk.NearestAB(ab, r.refs)
		dWin := colorspace.DeltaE2000AB(ab, r.refs[win])
		dRun := math.Inf(1)
		for _, j := range r.cls.runnerUps(win) {
			if d := colorspace.DeltaE2000AB(ab, r.refs[j]); d < dRun {
				dRun = d
			}
		}
		if math.IsInf(dRun, 1) {
			continue // single-point constellation: no runner-up
		}
		if r.eq != nil {
			r.eq.Observe(win, s.AB, dWin, dRun)
		}
		margins = append(margins, linkstats.Margin{Point: win, Win: dWin, RunnerUp: dRun})
	}
	r.marginBuf = margins
	return margins
}

// observeFrameHealth is the per-frame step of the self-heal state
// machine. It watches two failure signatures the injectable
// impairments produce — segmentation collapse (frames that keep
// discarding deframe fragments without ever completing a packet) and
// classification-distance blowup (data symbols drifting far from every
// reference, the signature of AWB/ambient drift) — and triggers a
// resync when either persists. It also ages the calibration: once the
// references outlive StaleAfterFrames without refresh the receiver
// drops to degraded mode (decode against last-known-good references,
// counted per block) until the next valid calibration packet snaps
// them back.
func (r *Receiver) observeFrameHealth(syms []packet.RxSymbol, pkts, discards int) {
	h := &r.heal
	if h.cfg.Disable {
		return
	}
	// Calibration age. Factory-reference receivers (and receivers that
	// have not yet calibrated) have nothing to go stale.
	if h.calEver {
		h.framesSinceCal++
		if !h.stale && h.framesSinceCal > h.cfg.StaleAfterFrames {
			r.markStale()
		}
	}
	// Classification distance, meaningful only against calibrated
	// references; a handful of data symbols is too noisy a sample.
	if h.calEver && r.haveRefs {
		var sum float64
		n := 0
		for _, s := range syms {
			if s.Kind != packet.KindData {
				continue
			}
			ab := r.eqAB(s.AB)
			sum += ab.Dist(r.refs[csk.NearestAB(ab, r.refs)])
			n++
		}
		if n >= 8 {
			mean := sum / float64(n)
			r.distGauge.Set(mean)
			if mean > h.cfg.DistanceTheta {
				h.distStreak++
			} else {
				h.distStreak = 0
			}
		}
	}
	// Segmentation collapse: discarding without producing.
	if discards > 0 && pkts == 0 {
		h.collapseStreak++
	} else if pkts > 0 {
		h.collapseStreak = 0
	}
	switch {
	case h.collapseStreak >= h.cfg.CollapseFrames:
		r.resync()
	case !h.stale && h.distStreak >= h.cfg.DistanceFrames:
		// Blown-up classification with an intact packet structure means
		// the channel moved under the references; resync once and wait
		// (in degraded mode) for the next calibration rather than
		// re-firing every DistanceFrames frames.
		r.resync()
	}
}

// resync discards the deframer state so parsing re-acquires on the
// next owo delimiter, and marks the references suspect: whatever broke
// the symbol stream may have moved the channel too, so the next valid
// calibration replaces them outright instead of being smoothed in.
func (r *Receiver) resync() {
	h := &r.heal
	r.deframer.Reset()
	r.syncDiscards()  // Reset counts any dropped fragment as a discard
	r.started = false // no gap marker into the empty buffer
	h.collapseStreak, h.distStreak = 0, 0
	if h.calEver && !h.stale {
		r.markStale()
	}
	r.c.resyncs.Inc()
	r.ls.NoteResync()
}

// markStale begins a degraded-mode episode: decoding continues against
// the last-known-good references while the receiver waits for the next
// valid calibration packet.
func (r *Receiver) markStale() {
	r.heal.stale = true
	r.c.staleCalibrations.Inc()
	r.syncGauge.Set(1)
	r.ls.NoteStale()
}

// Flush drains any partially buffered packet at end of capture.
func (r *Receiver) Flush() []Block {
	sp := r.tel.StartSpan("rx.flush")
	defer sp.End()
	pkts := r.deframer.Flush()
	r.syncDiscards()
	var blocks []Block
	for _, pkt := range pkts {
		var blk Block
		if r.handlePacket(pkt, &blk) {
			blocks = append(blocks, blk)
		}
	}
	return blocks
}

// handlePacket dispatches one deframed packet. It fills blk and
// reports true when the packet produced a block (every data packet
// does, recovered or not); calibration packets return false.
func (r *Receiver) handlePacket(pkt packet.RxPacket, blk *Block) bool {
	switch pkt.Kind {
	case packet.PacketCalibration:
		r.c.packetsCalibration.Inc()
		if !r.validCalibration(pkt.Colors) {
			// A damaged data packet can masquerade as a calibration
			// packet; accepting its colors would poison the reference
			// set for every later packet. Reject implausible bodies.
			r.c.calibrationRejected.Inc()
			return false
		}
		if len(pkt.Colors) == int(r.cfg.Order) && !r.cfg.UseFactoryReferences {
			// Undo the transmission permutation (see
			// csk.Constellation.CalibrationOrder).
			perm := r.calPerm
			calib := r.ds.calib
			if cap(calib) < len(pkt.Colors) {
				calib = make([]colorspace.AB, len(pkt.Colors))
			}
			calib = calib[:len(pkt.Colors)]
			for i, idx := range perm {
				calib[idx] = pkt.Colors[i]
			}
			r.ds.calib = calib
			pkt.Colors = calib
			drift := 0.0
			if r.ls != nil && r.haveRefs {
				// Calibration drift: how far this packet says the
				// channel moved the constellation since the current
				// references (mean a,b-plane distance).
				var sum float64
				for i := range r.refs {
					sum += r.refs[i].Dist(pkt.Colors[i])
				}
				drift = sum / float64(len(r.refs))
			}
			if !r.haveRefs || r.heal.stale {
				// First calibration, or re-acquisition after a stale
				// episode: the old references are absent or suspect, so
				// snap to the fresh observation outright — smoothing
				// toward it would stretch the degraded period over many
				// calibration intervals.
				r.refs = append(r.refs[:0], pkt.Colors...)
			} else {
				// Exponential smoothing: each calibration packet is a
				// single noisy observation of the constellation;
				// averaging packets tracks slow channel drift without
				// inheriting one packet's noise.
				const alpha = 0.35
				for i := range r.refs {
					r.refs[i].A += alpha * (pkt.Colors[i].A - r.refs[i].A)
					r.refs[i].B += alpha * (pkt.Colors[i].B - r.refs[i].B)
				}
			}
			r.haveRefs = true
			// The classifier discriminates white-vs-data better with
			// the device's own view of the constellation.
			r.cls.setDataRefs(r.refs)
			if r.eq != nil {
				// Anchor the equalizer: the raw permutation-corrected
				// observation against the smoothed references it must
				// map future symbols toward. Lengths are guaranteed
				// equal here, so Anchor cannot fail.
				_ = r.eq.Anchor(pkt.Colors, r.refs)
			}
			r.c.calibrationApplied.Inc()
			r.ls.RecordCalibration(drift)
			r.heal.calEver = true
			r.heal.framesSinceCal = 0
			r.heal.distStreak = 0
			if r.heal.stale {
				r.heal.stale = false
				r.syncGauge.Set(0)
			}
		}
		r.consumeCalMeta(pkt.Meta)
		return false
	case packet.PacketData:
		r.c.packetsData.Inc()
		if !r.haveRefs {
			// Cannot demodulate before the first calibration packet
			// (§6.2: a new receiver waits for one).
			r.c.uncalibratedDrops.Inc()
			return false
		}
		r.decodeData(pkt, blk)
		if blk.Recovered {
			r.c.rsDecodeOK.Inc()
		} else {
			r.c.rsDecodeFail.Inc()
		}
		if r.ls != nil {
			r.ls.RecordBlock(linkstats.BlockObs{
				Recovered:      blk.Recovered,
				Erasures:       blk.Erasures,
				CorrectedBytes: r.correctionCount(blk),
				ParityBytes:    r.cfg.Code.ParityBytes(),
				RawSymbols:     blk.RawSymbols,
			})
		}
		if r.heal.stale {
			// Decoded against last-known-good references while waiting
			// for recalibration: usable, but flagged.
			r.c.degradedBlocks.Inc()
			r.ls.NoteDegradedBlock()
		}
		return true
	}
	return false
}

// correctionCount counts the unknown-position byte errors the RS
// decoder corrected in a recovered block: the bytes where the winning
// hypothesis's codeword as built (ds.received) differs from the
// corrected one (ds.cw), outside its erasures (ds.erasures). All three
// are still on decode scratch, since handlePacket calls this right
// after decodeData. Only called when a linkstats collector is
// attached.
func (r *Receiver) correctionCount(b *Block) int {
	if !b.Recovered {
		return 0
	}
	ds := &r.ds
	diffs, e := 0, 0
	for i, v := range ds.received {
		if e < len(ds.erasures) && ds.erasures[e] == i {
			e++
		} else if v != ds.cw[i] {
			diffs++
		}
	}
	return diffs
}

// decodeData demodulates and RS-decodes one data packet into blk.
// When the packet straddled several inter-frame gaps, only the *total*
// number of missing slots is known (from the header size field), not
// how the loss split between the gaps; the decoder searches the
// splits, letting the Reed-Solomon syndrome check reject wrong
// guesses.
func (r *Receiver) decodeData(pkt packet.RxPacket, blk *Block) {
	if !r.packetGeometry(pkt) {
		return
	}
	ds := &r.ds
	gaps, missing := ds.gaps, ds.missing

	// Try loss splits across the gaps, most even first. With zero or
	// one gap there is exactly one split, whose erasure positions are
	// certain — that single deterministic attempt may consume the
	// code's full parity. Every further attempt (multi-gap splits,
	// position jitter) is a guess and must leave verification slack so
	// a wrong guess cannot masquerade as a valid decode (see
	// erasureLimit). The whole search runs on decode scratch (ds.split,
	// ds.order), allocation-free.
	split := slices.Grow(ds.split[:0], len(gaps))[:len(gaps)]
	ds.split = split
	if len(gaps) > 1 {
		// Per-gap candidate losses ordered by distance from the even
		// share (the sequence forEachSplit in split_test.go specifies:
		// gaps have equal durations, so even splits are overwhelmingly
		// likely).
		base := missing / len(gaps)
		order := append(ds.order[:0], base)
		for d := 1; ; d++ {
			grew := false
			if base+d <= missing {
				order = append(order, base+d)
				grew = true
			}
			if base-d >= 0 {
				order = append(order, base-d)
				grew = true
			}
			if !grew {
				break
			}
		}
		ds.order = order
		tries := 0
		blk.Recovered = r.searchSplits(blk, order, split, 0, missing, &tries)
		return
	}
	if len(gaps) == 1 {
		split[0] = missing
	}
	blk.Recovered = r.tryHypothesis(blk, split, true)
	if blk.Recovered || len(gaps) == 0 || missing == 0 {
		return
	}
	// Band miscounting can offset the gap's apparent position by a slot
	// or two; these retries are guesses.
	at := gaps[0]
	for _, delta := range [...]int{-1, 1, -2, 2, -3, 3} {
		if g := at + delta; g >= 0 && g <= len(ds.observed) {
			r.moveGap(g)
			if r.tryHypothesis(blk, split, false) {
				blk.Recovered = true
				return
			}
		}
	}
}

// packetGeometry decodes a data packet's size field and sets the
// packet's geometry on decode scratch: its slot layout and data-slot
// prefix, its observed payload slots, its gap positions rebased past
// the size field, and how many slots the gaps swallowed in total. It
// clears the classification memo for the observed slots and the
// judge. It reports false when the packet cannot hold one codeword as
// declared: the size field fails to decode, declares a slot count
// whose layout holds more or fewer data symbols than one codeword, or
// declares fewer slots than were observed; or a gap lies outside the
// payload or before the one listed ahead of it (the deframer lists
// gaps ascending).
func (r *Receiver) packetGeometry(pkt packet.RxPacket) bool {
	ds := &r.ds
	nSize := packet.SizeSymbols(r.cfg.Order)
	if len(pkt.Slots) < nSize {
		return false
	}
	// Match and decode the size field.
	sizeIdx := ds.sizeIdx[:0]
	for i := 0; i < nSize; i++ {
		sizeIdx = append(sizeIdx, csk.NearestAB(r.eqAB(pkt.Slots[i].AB), r.refs))
	}
	ds.sizeIdx = sizeIdx
	totalSlots, err := r.pktCfg.DecodeSizeField(sizeIdx)
	if err != nil {
		r.c.sizeFieldBad.Inc()
		return false
	}
	// A declared size outside [lo, hi) does not correspond to one
	// codeword: corrupt size field. Rejecting it before the layout is
	// built keeps a bad 15-bit field from growing the layout scratch
	// to 32767 slots.
	if lo, hi := r.codewordSlots(); totalSlots < lo || totalSlots >= hi {
		return false
	}

	observed := pkt.Slots[nSize:]
	missing := totalSlots - len(observed)
	if missing < 0 {
		// More slots observed than declared: corrupt size field.
		return false
	}
	gaps := ds.gaps[:0]
	for _, g := range pkt.Gaps {
		gaps = append(gaps, g-nSize)
	}
	if missing > 0 && len(gaps) == 0 {
		// Stream ended mid-packet without a gap marker: the tail is
		// the loss.
		gaps = append(gaps, len(observed))
	}
	ds.gaps = gaps
	for i, g := range gaps {
		if g < 0 || g > len(observed) || i > 0 && g < gaps[i-1] {
			return false
		}
	}
	ds.observed, ds.missing = observed, missing

	// Reconstruct the slot kinds for the whole packet from the shared
	// layout rule, and count the data slots ahead of each slot.
	ds.layout = packet.AppendWhiteLayout(ds.layout[:0], totalSlots, r.cfg.WhiteFraction)
	before := append(ds.dataBefore[:0], 0)
	for _, white := range ds.layout {
		d := before[len(before)-1]
		if !white {
			d++
		}
		before = append(before, d)
	}
	ds.dataBefore = before

	// Every hypothesis classifies the same observed slots against the
	// same references and equalizer (neither changes inside a packet),
	// so each slot is classified once, on first use, and the index is
	// reused by every later hypothesis (DESIGN.md §17).
	ds.cls = slices.Grow(ds.cls[:0], len(observed))[:len(observed)]
	for i := range ds.cls {
		ds.cls[i] = -1
	}
	ds.sj.ready = false
	return true
}

// codewordSlots returns the declared payload slot counts [lo, hi)
// whose layout holds exactly one codeword's data symbols, cached per
// code, order and white fraction (SetOperatingPoint changes all
// three).
func (r *Receiver) codewordSlots() (lo, hi int) {
	b := &r.ds.bounds
	if b.code != r.cfg.Code || b.order != r.cfg.Order || b.white != r.cfg.WhiteFraction {
		d := r.cfg.Order.SymbolsPerBytes(r.cfg.Code.N())
		*b = slotBounds{
			code: r.cfg.Code, order: r.cfg.Order, white: r.cfg.WhiteFraction,
			lo: packet.SlotsForData(d, r.cfg.WhiteFraction),
			hi: packet.SlotsForData(d+1, r.cfg.WhiteFraction),
		}
	}
	return b.lo, b.hi
}

// maxSplitTries bounds the multi-gap loss-split search, matching
// forEachSplit's budget.
const maxSplitTries = 2000

// searchSplits recursively enumerates multi-gap loss splits in
// most-even-first order (the sequence forEachSplit produces) on the
// decode scratch, trying each until one decodes or the budget runs
// out.
func (r *Receiver) searchSplits(blk *Block, order, split []int, idx, remaining int, tries *int) bool {
	if idx == len(split)-1 {
		if *tries >= maxSplitTries {
			return false
		}
		*tries++
		split[idx] = remaining
		return r.tryHypothesis(blk, split, *tries == 1)
	}
	for _, v := range order {
		if v > remaining {
			continue
		}
		split[idx] = v
		if r.searchSplits(blk, order, split, idx+1, remaining-v, tries) {
			return true
		}
		if *tries >= maxSplitTries {
			return false
		}
	}
	return false
}

// moveGap places a single-gap packet's gap at observed slot g. The
// judge's base vector depends on where the gap cuts the observed
// slots, so it is prepared again at the next guess.
func (r *Receiver) moveGap(g int) {
	r.ds.gaps[0] = g
	r.ds.sj.ready = false
}

// tryHypothesis runs one loss hypothesis on the packet in decode
// scratch, and counts it as one RS attempt. Observed segment k, the
// run of observed slots between gap k−1 and gap k, lands split[0] + …
// + split[k−1] layout slots later than with no loss, and gap k's lost
// slots erase the codeword bytes their data symbols touch
// (lossErasures). The packet's first hypothesis is built and decoded
// in full: when nothing decodes, its RawSymbols feed SER accounting.
// Every later one is a guess, judged by its syndromes (DESIGN.md §17)
// and built only if it passes, so blk ends as if every hypothesis had
// been built and decoded in turn.
func (r *Receiver) tryHypothesis(blk *Block, split []int, first bool) bool {
	r.c.rsAttempts.Inc()
	ds := &r.ds
	eras := r.lossErasures(split)
	if r.cfg.NoErasureDecoding {
		eras = nil
	}
	certain := first && len(ds.gaps) <= 1
	fits := len(eras) <= r.erasureLimit(!certain)
	if !first && (!fits || !r.dec.CheckSyndromes(r.guessSyndromes(split), eras)) {
		return false
	}
	raw, observed := r.buildCodeword(split)
	ds.received = append(ds.received[:0], ds.cw...)
	var data []byte // nil unless Decode succeeds
	if fits {
		data, _ = r.dec.Decode(ds.cw, eras)
	}
	if data == nil {
		if blk.RawSymbols == nil {
			blk.RawSymbols, blk.Erasures, blk.SymbolsObserved = raw, len(ds.erasures), observed
		} else {
			r.putRawBuf(raw)
		}
		return false
	}
	r.putRawBuf(blk.RawSymbols)
	blk.RawSymbols, blk.Erasures, blk.SymbolsObserved = raw, len(ds.erasures), observed
	blk.Data = append(r.getDataBuf(), data...)
	return true
}

// erasureLimit is the most erasures an RS attempt may declare: the
// code's parity, less 4 bytes of verification slack for a guess.
// Erasure decoding with exactly n−k erasures is an exactly determined
// system: it "succeeds" for ANY erasure positions, yielding a
// valid-syndrome but wrong codeword when the positions are wrong. The
// certain attempt (positions known from a single gap) may use the full
// parity; with s spare parity bytes, a wrong guess passes only with
// probability ~2^(-8s).
func (r *Receiver) erasureLimit(needSlack bool) int {
	if needSlack {
		return r.cfg.Code.ParityBytes() - 4
	}
	return r.cfg.Code.ParityBytes()
}

// lossErasures lists in ds.erasures, ascending, the codeword bytes a
// hypothesis erases. Gap k loses layout slots
// [g_k + L_k, g_k + L_k + split[k]), L_k the slots lost before it; the
// data-slot prefix turns them into data symbols [D_a, D_b), which
// touch bytes [D_a·c/8, (D_b·c−1)/8] ∩ [0, n). Two gaps' ranges may
// share a byte. O(gaps): no layout walk.
func (r *Receiver) lossErasures(split []int) []int {
	ds := &r.ds
	c := r.cfg.Order.BitsPerSymbol()
	n := r.cfg.Code.N()
	eras := ds.erasures[:0]
	shift := 0
	for k, g := range ds.gaps {
		first, end := ds.dataBefore[g+shift], ds.dataBefore[g+shift+split[k]]
		shift += split[k]
		if first == end {
			continue
		}
		by, last := first*c/8, min((end*c-1)/8, n-1)
		if len(eras) > 0 {
			by = max(by, eras[len(eras)-1]+1) // a byte two gaps' symbols share
		}
		for ; by <= last; by++ {
			eras = append(eras, by)
		}
	}
	ds.erasures = eras
	return eras
}

// buildCodeword builds a hypothesis's codeword in ds.cw, descrambled,
// from every observed segment at its shift. It returns the codeword's
// constellation indices in a RawSymbols buffer from the free-list, -1
// where lost, and how many it observed.
func (r *Receiver) buildCodeword(split []int) (raw []int, observed int) {
	ds := &r.ds
	d := ds.dataBefore[len(ds.layout)]
	raw = slices.Grow(r.getRawBuf(), d)[:d]
	for i := range raw {
		raw[i] = -1
	}
	n := r.cfg.Code.N()
	cw := slices.Grow(ds.cw[:0], n)[:n]
	clear(cw)
	shift := 0
	for k := 0; k <= len(ds.gaps); k++ {
		if k > 0 {
			shift += split[k-1]
		}
		r.placeSegment(cw, raw, k, shift)
	}
	packet.ScrambleInPlace(cw) // undo payload whitening
	ds.cw = cw
	for _, s := range raw {
		if s >= 0 {
			observed++
		}
	}
	return raw, observed
}

// placeSegment ORs into word the constellation indices of observed
// segment k's data slots, placed shift layout slots late. Each index's
// bits go where AppendUnpack packs them: MSB first, so a 3- or 5-bit
// symbol may straddle two bytes, and bits past the word's end are
// dropped. Given raw, it also writes each index there. It returns the
// byte range [lo, hi) it touched (empty when lo ≥ hi).
func (r *Receiver) placeSegment(word []byte, raw []int, k, shift int) (lo, hi int) {
	ds := &r.ds
	from, to := 0, len(ds.observed)
	if k > 0 {
		from = ds.gaps[k-1]
	}
	if k < len(ds.gaps) {
		to = ds.gaps[k]
	}
	c := r.cfg.Order.BitsPerSymbol()
	lo = len(word)
	for o := from; o < to; o++ {
		s := o + shift
		if ds.layout[s] {
			continue
		}
		idx := r.slotClass(o)
		if raw != nil {
			raw[ds.dataBefore[s]] = idx
		}
		bit := ds.dataBefore[s] * c
		b := bit / 8
		x := idx << (16 - c - bit%8)
		word[b] |= byte(x >> 8)
		hi = b + 1
		if b+1 < len(word) {
			word[b+1] |= byte(x)
			hi = b + 2
		}
		lo = min(lo, b)
	}
	return lo, hi
}

// slotClass returns observed slot o's constellation index, classified
// on first use and memoized in ds.cls for the packet's later
// hypotheses.
func (r *Receiver) slotClass(o int) int {
	idx := r.ds.cls[o]
	if idx < 0 {
		idx = csk.NearestAB(r.eqAB(r.ds.observed[o].AB), r.refs)
		r.ds.cls[o] = idx
	}
	return idx
}

// guessSyndromes returns a guess's syndromes: the placement's base
// vector XOR each middle segment's vector at its shift. The vector is
// valid until the next call.
func (r *Receiver) guessSyndromes(split []int) []byte {
	sj := &r.ds.sj
	if !sj.ready {
		r.prepareJudge()
	}
	synd := append(sj.synd[:0], sj.base...)
	shift := 0
	for k := 1; k < len(r.ds.gaps); k++ {
		shift += split[k-1]
		for i, v := range r.segmentSyndromes(k, shift) {
			synd[i] ^= v
		}
	}
	sj.synd = synd
	return synd
}

// prepareJudge sets the judge up for the current gap placement: the
// per-code mask syndromes, the base vector and an empty memo.
func (r *Receiver) prepareJudge() {
	ds := &r.ds
	sj := &ds.sj
	sj.ready = true
	code := r.cfg.Code
	w := code.ParityBytes()
	if sj.code != code {
		sj.code = code
		sj.word = make([]byte, code.N())
		packet.ScrambleInPlace(sj.word) // the mask: a zero codeword, scrambled
		sj.maskSynd = make([]byte, w)
		code.AddSyndromes(sj.maskSynd, sj.word, 0)
		clear(sj.word)
		sj.base = make([]byte, w)
		sj.synd = make([]byte, 0, w)
		sj.spill = make([]byte, w)
	}
	copy(sj.base, sj.maskSynd)
	r.addSegmentSyndromes(sj.base, 0, 0)
	r.addSegmentSyndromes(sj.base, len(ds.gaps), ds.missing)
	stored := min((len(ds.gaps)-1)*(ds.missing+1), maxSplitMemo/w)
	sj.memo = slices.Grow(sj.memo[:0], stored*w)[:stored*w]
	sj.have = slices.Grow(sj.have[:0], stored)[:stored]
	clear(sj.have)
}

// segmentSyndromes returns the syndromes of middle segment k (0 < k <
// gaps) at the given shift, kept in the memo when it fits under
// maxSplitMemo. The vector is valid until the next call.
func (r *Receiver) segmentSyndromes(k, shift int) []byte {
	sj := &r.ds.sj
	w := len(sj.base)
	i := (k-1)*(r.ds.missing+1) + shift
	if i >= len(sj.have) {
		clear(sj.spill)
		r.addSegmentSyndromes(sj.spill, k, shift)
		return sj.spill
	}
	v := sj.memo[i*w : i*w+w]
	if !sj.have[i] {
		clear(v)
		r.addSegmentSyndromes(v, k, shift)
		sj.have[i] = true
	}
	return v
}

// addSegmentSyndromes XORs into synd the syndromes of observed segment
// k placed shift layout slots late.
func (r *Receiver) addSegmentSyndromes(synd []byte, k, shift int) {
	word := r.ds.sj.word
	if lo, hi := r.placeSegment(word, nil, k, shift); lo < hi {
		r.cfg.Code.AddSyndromes(synd, word[lo:hi], lo)
		clear(word[lo:hi])
	}
}

// getRawBuf pops a RawSymbols buffer from the free-list (sized for one
// codeword's data symbols), or allocates one.
func (r *Receiver) getRawBuf() []int {
	if n := len(r.rawFree); n > 0 {
		b := r.rawFree[n-1]
		r.rawFree = r.rawFree[:n-1]
		return b[:0]
	}
	return make([]int, 0, r.cfg.Order.SymbolsPerBytes(r.cfg.Code.N()))
}

func (r *Receiver) putRawBuf(b []int) {
	if b != nil && len(r.rawFree) < maxFreeBufs {
		r.rawFree = append(r.rawFree, b)
	}
}

// getDataBuf pops a Block.Data buffer from the free-list, or allocates
// one sized for the code's k data bytes.
func (r *Receiver) getDataBuf() []byte {
	if n := len(r.dataFree); n > 0 {
		b := r.dataFree[n-1]
		r.dataFree = r.dataFree[:n-1]
		return b[:0]
	}
	return make([]byte, 0, r.cfg.Code.K())
}

func (r *Receiver) putDataBuf(b []byte) {
	if b != nil && len(r.dataFree) < maxFreeBufs {
		r.dataFree = append(r.dataFree, b)
	}
}

// getBlockSlice pops a result slice for ProcessAnalysis from the
// free-list, or allocates one.
func (r *Receiver) getBlockSlice() []Block {
	if n := len(r.blockFree); n > 0 {
		s := r.blockFree[n-1]
		r.blockFree = r.blockFree[:n-1]
		return s[:0]
	}
	return make([]Block, 0, 4)
}

// Recycle returns blocks previously delivered by ProcessFrame,
// ProcessAnalysis or Flush to the receiver's free-lists, closing the
// allocation loop: a caller that recycles every batch runs the
// steady-state decode path allocation-free. The blocks — including
// their Data and RawSymbols — must not be used after the call.
// Recycle must run on the same goroutine as the sequential decode
// path. Not recycling is always safe; the buffers are then simply
// garbage-collected.
func (r *Receiver) Recycle(blocks []Block) {
	if blocks == nil {
		return
	}
	for i := range blocks {
		r.putDataBuf(blocks[i].Data)
		r.putRawBuf(blocks[i].RawSymbols)
		blocks[i] = Block{}
	}
	if len(r.blockFree) < maxFreeBufs {
		r.blockFree = append(r.blockFree, blocks[:0])
	}
}
