// Package capture implements PGC, the PacketGame capture container: a
// recording of a live PGSP session that stores the session's wire. A
// capture holds every round exactly as PGSP carries it — the round body a
// round frame wraps — with the round's arrival timestamp and index, the
// gate's decision trace (per-round selected set, effective budget B_eff,
// degradation-ladder mode, and feedback verdicts) interleaved at the
// position it was settled, and a trailing index with per-stream metadata
// (packet rate, GOP structure, size histograms, priority tier) so tools can
// map a capture directory without scanning round bodies.
//
// Captures turn the synthetic-generator-driven test and bench layer into a
// corpus-driven one, the way GopherCap does for PCAPs: replay writes the
// stored round bodies back under fresh frame headers at their recorded
// timing, which preserves the bursts that actually stress the system (a
// flat average rate provably flattens them), and replaying the rounds
// through a fresh gate while diffing against the embedded decision trace is
// a free determinism audit.
//
// File layout (fixed-width integers big-endian):
//
//	magic   "PGC2" (4 bytes)
//	version byte   (currently 2)
//	records until EOF or footer, each an internal/container CRC record:
//	    kind    uint8    // RecSession | RecRound | RecTrace | RecIndex
//	    length  uint32   // body length in bytes
//	    crc     uint32   // CRC32 (IEEE) of the body
//	    body    [length]byte
//	footer  "PGCX" (4 bytes) + uint64 offset of the index record
//
// The first record must be RecSession (JSON SessionMeta); the last is
// RecIndex (JSON Index), addressed by the footer so indexed opens never
// scan. RecRound bodies are binary, in strictly increasing round order and
// non-decreasing time:
//
//	ts      uvarint  // nanoseconds since capture start
//	round   uvarint  // the recorded round index
//	body    ...      // the PGSP round body (stream.RoundEncoder)
//
// Every uvarint is in its shortest form. RecTrace bodies are the JSON
// encoding of one trace.Round. Every body is CRC-protected, and every round
// body must decode at the session's width; a reader must fail cleanly on
// truncation, corruption, or implausible lengths — never panic or over-read
// (FuzzCaptureContainer). PGC1, which stored one record per packet, is not
// read: its files fail with an error that names their version.
package capture

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/container"
	"packetgame/internal/stream"
	"packetgame/internal/trace"
)

// Magic identifies PGC capture files.
var Magic = [4]byte{'P', 'G', 'C', '2'}

// footerMagic opens the 12-byte footer that addresses the index record.
var footerMagic = [4]byte{'P', 'G', 'C', 'X'}

// Version is the current container version.
const Version = 2

// RecordKind tags one record in a capture.
type RecordKind uint8

const (
	// RecSession is the JSON session header (first record).
	RecSession RecordKind = 1
	// RecRound is one round: timestamp, round index and PGSP round body.
	RecRound RecordKind = 2
	// RecTrace is one decision-trace round (JSON trace.Round).
	RecTrace RecordKind = 3
	// RecIndex is the JSON index (last record).
	RecIndex RecordKind = 4
)

const (
	footerLen = 12
	// maxRecordBody bounds a record body, PGSP's frame bound; a longer
	// claimed length means a corrupt file.
	maxRecordBody = 64 << 20
)

// ErrCorrupt wraps every structural failure a capture reader detects, so
// callers can distinguish "bad file" from I/O errors.
var ErrCorrupt = errors.New("capture: corrupt capture")

func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: "+format, append([]interface{}{ErrCorrupt}, args...)...)
}

// StreamMeta describes one captured stream (mirrors the PGSP handshake).
type StreamMeta struct {
	Codec   string `json:"codec"`
	FPS     int    `json:"fps"`
	GOPSize int    `json:"gop"`
}

// GateMeta pins the gate configuration of the recorded run, enough for an
// audit to rebuild a bit-identical gate. Only deterministic configurations
// are representable: gates with a trained predictor or online learning
// record no GateMeta and cannot be audited from the capture alone.
type GateMeta struct {
	Window          int     `json:"window"`
	Budget          float64 `json:"budget"`
	UseTemporal     bool    `json:"use_temporal"`
	Explore         bool    `json:"explore"`
	DependencyAware bool    `json:"dependency_aware"`
	Priorities      []uint8 `json:"priorities,omitempty"`
	// Governed records that the run planned against an overload governor:
	// an audit must pin each round's B_eff and mode from the decision
	// trace instead of re-running the control loop against wall-clock
	// latencies that will never reproduce.
	Governed bool `json:"governed,omitempty"`
}

// SessionMeta is the capture's session header.
type SessionMeta struct {
	// Label is a free-form capture name.
	Label string `json:"label,omitempty"`
	// StartUnixNanos is the wall-clock capture start (0 for virtual-time
	// captures, whose timestamps are synthetic but exactly reproducible).
	StartUnixNanos int64 `json:"start_unix_nanos,omitempty"`
	// Streams describes each captured stream slot.
	Streams []StreamMeta `json:"streams"`
	// Gate, when present, is the recorded gate configuration for audits.
	Gate *GateMeta `json:"gate,omitempty"`
}

// Infos converts the stream metadata to PGSP handshake entries.
func (m SessionMeta) Infos() ([]stream.StreamInfo, error) {
	infos := make([]stream.StreamInfo, len(m.Streams))
	for i, sm := range m.Streams {
		c, err := codec.ParseCodec(sm.Codec)
		if err != nil {
			return nil, fmt.Errorf("capture: stream %d: %w", i, err)
		}
		infos[i] = stream.StreamInfo{Codec: c, FPS: sm.FPS, GOPSize: sm.GOPSize}
	}
	return infos, nil
}

// sizeHistBuckets is the number of log2 size-histogram buckets: bucket b
// counts packets with Size in [256·2^b, 256·2^(b+1)), with the first and
// last buckets absorbing the tails.
const sizeHistBuckets = 12

// sizeBucket maps a packet size to its histogram bucket.
func sizeBucket(size int) int {
	if size < 256 {
		return 0
	}
	b := bits.Len(uint(size)) - 9 // 256 = 1<<8 → bucket 0 covers len 9
	if b < 0 {
		b = 0
	}
	if b >= sizeHistBuckets {
		b = sizeHistBuckets - 1
	}
	return b
}

// StreamStats is the per-stream index entry.
type StreamStats struct {
	ID        int     `json:"id"`
	Packets   int64   `json:"packets"`
	Bytes     int64   `json:"bytes"` // sum of Size metadata, not payload bytes
	Keyframes int64   `json:"keyframes"`
	GOPSize   int     `json:"gop"`       // largest GOP observed
	MeanRate  float64 `json:"mean_rate"` // packets/second over the stream's span
	SizeMin   int     `json:"size_min"`
	SizeMax   int     `json:"size_max"`
	// SizeHist counts packets per log2 size bucket starting at 256 B.
	SizeHist [sizeHistBuckets]int64 `json:"size_hist"`
	// Tier is the stream's admission-control tier (from GateMeta).
	Tier         uint8 `json:"tier,omitempty"`
	FirstTSNanos int64 `json:"first_ts"`
	LastTSNanos  int64 `json:"last_ts"`
}

// Index is the capture's trailing index.
type Index struct {
	Packets       int64         `json:"packets"`
	Rounds        int64         `json:"rounds"`
	Decisions     int64         `json:"decisions"`
	DurationNanos int64         `json:"duration_nanos"`
	PerStream     []StreamStats `json:"per_stream"`
}

// Duration returns the capture's packet time span.
func (ix Index) Duration() time.Duration { return time.Duration(ix.DurationNanos) }

// Writer writes a PGC capture. Safe for concurrent use: a pipelined
// recording writes rounds from the source goroutine while the gate's
// feedback path appends decision-trace rounds.
type Writer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	meta   SessionMeta
	off    int64 // bytes written so far
	buf    []byte
	closed bool

	// StripPayloads drops packet payloads from the capture (metadata-only
	// corpus files: the gate and the replay timing model never read
	// payloads, and committed corpora stay small). Set before the first
	// WritePacket.
	StripPayloads bool

	idx   Index
	stats []StreamStats

	// The last round begun, and whether it is still being collected: its
	// record is written when a later round begins, on WriteDecision, or on
	// Close.
	haveRound bool
	open      bool
	round     int64
	ts        time.Duration
	pend      []codec.Packet // the open round's packets, ascending stream ids
	rnd       codec.Round
	enc       stream.RoundEncoder
}

// NewWriter starts a capture with the given session header.
func NewWriter(w io.Writer, meta SessionMeta) (*Writer, error) {
	if len(meta.Streams) == 0 {
		return nil, fmt.Errorf("capture: session has no streams")
	}
	cw := &Writer{w: bufio.NewWriterSize(w, 64<<10), meta: meta}
	cw.stats = make([]StreamStats, len(meta.Streams))
	for i := range cw.stats {
		cw.stats[i] = StreamStats{ID: i, SizeMin: -1}
		if meta.Gate != nil && i < len(meta.Gate.Priorities) {
			cw.stats[i].Tier = meta.Gate.Priorities[i]
		}
	}
	if _, err := cw.w.Write(Magic[:]); err != nil {
		return nil, err
	}
	if err := cw.w.WriteByte(Version); err != nil {
		return nil, err
	}
	cw.off = 5
	body, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	return cw, cw.writeRecord(RecSession, body)
}

// writeRecord appends one framed record. Callers hold mu (or are still
// single-goroutine, during construction/close).
func (cw *Writer) writeRecord(kind RecordKind, body []byte) error {
	n, err := container.WriteRecord(cw.w, uint8(kind), body)
	cw.off += int64(n)
	return err
}

// WritePacket adds one captured packet to round round. ts is the round's
// offset from capture start, the same for every packet of the round.
// Rounds come in increasing order at non-decreasing timestamps, and a
// round's packets in ascending stream order, the order its round body
// holds them: replay streams captures without buffering, so anything else —
// a packet of a round already written among them — is an error at write
// time rather than a surprise at replay time. The packet's payload must
// stay unmodified until its round is written.
func (cw *Writer) WritePacket(ts time.Duration, round int64, p *codec.Packet) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.writePacket(ts, round, p)
}

func (cw *Writer) writePacket(ts time.Duration, round int64, p *codec.Packet) error {
	if p.StreamID < 0 || p.StreamID >= len(cw.stats) {
		return fmt.Errorf("capture: packet for stream %d of %d", p.StreamID, len(cw.stats))
	}
	if cw.open && round == cw.round {
		if ts != cw.ts {
			return fmt.Errorf("capture: packet at %v in round %d, which is at %v", ts, round, cw.ts)
		}
		if n := len(cw.pend); n > 0 && p.StreamID <= cw.pend[n-1].StreamID {
			return fmt.Errorf("capture: stream %d after stream %d in round %d", p.StreamID, cw.pend[n-1].StreamID, round)
		}
	} else if err := cw.begin(ts, round); err != nil {
		return err
	}
	cw.pend = append(cw.pend, *p)
	if cw.StripPayloads {
		cw.pend[len(cw.pend)-1].Payload = nil
	}

	st := &cw.stats[p.StreamID]
	if st.Packets == 0 {
		st.FirstTSNanos = ts.Nanoseconds()
	}
	st.LastTSNanos = ts.Nanoseconds()
	st.Packets++
	st.Bytes += int64(p.Size)
	if p.Keyframe() {
		st.Keyframes++
	}
	if p.GOPSize > st.GOPSize {
		st.GOPSize = p.GOPSize
	}
	if st.SizeMin < 0 || p.Size < st.SizeMin {
		st.SizeMin = p.Size
	}
	if p.Size > st.SizeMax {
		st.SizeMax = p.Size
	}
	st.SizeHist[sizeBucket(p.Size)]++
	cw.idx.Packets++
	return nil
}

// begin writes the open round, if any, and opens round round at ts.
func (cw *Writer) begin(ts time.Duration, round int64) error {
	switch {
	case cw.closed:
		return errors.New("capture: writer closed")
	case ts < 0 || round < 0:
		return fmt.Errorf("capture: negative timestamp %v or round %d", ts, round)
	case cw.haveRound && round == cw.round:
		return fmt.Errorf("capture: round %d has already been written", round)
	case cw.haveRound && (round < cw.round || ts < cw.ts):
		return fmt.Errorf("capture: out-of-order round (ts %v round %d after ts %v round %d)",
			ts, round, cw.ts, cw.round)
	}
	if err := cw.flush(); err != nil {
		return err
	}
	cw.haveRound, cw.open, cw.round, cw.ts = true, true, round, ts
	cw.idx.Rounds++
	cw.idx.DurationNanos = ts.Nanoseconds()
	return nil
}

// flush writes the open round, if any, as one round record.
func (cw *Writer) flush() error {
	if !cw.open {
		return nil
	}
	cw.open = false
	cw.rnd.Reset(len(cw.stats))
	for i := range cw.pend {
		cw.rnd.Append(int32(cw.pend[i].StreamID), &cw.pend[i])
	}
	cw.buf = binary.AppendUvarint(cw.buf[:0], uint64(cw.ts))
	cw.buf = binary.AppendUvarint(cw.buf, uint64(cw.round))
	cw.buf = cw.enc.AppendBody(cw.buf, &cw.rnd)
	clear(cw.pend)
	cw.pend = cw.pend[:0]
	return cw.writeRecord(RecRound, cw.buf)
}

// writeRound writes one whole round and its record at once, so a tapped
// round is complete on disk before anything else — a concurrent
// WriteDecision, say — can cut in. An idle round is a round too.
func (cw *Writer) writeRound(ts time.Duration, round int64, r *codec.Round) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if err := cw.begin(ts, round); err != nil {
		return err
	}
	for _, p := range r.Pkts {
		if err := cw.writePacket(ts, round, p); err != nil {
			return err
		}
	}
	return cw.flush()
}

// WriteDecision writes the open round, if any, then one decision-trace
// round.
func (cw *Writer) WriteDecision(r trace.Round) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.closed {
		return errors.New("capture: writer closed")
	}
	if err := cw.flush(); err != nil {
		return err
	}
	body, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := cw.writeRecord(RecTrace, body); err != nil {
		return err
	}
	cw.idx.Decisions++
	return nil
}

// Write implements trace.Sink, so a gate's Config.Trace can point straight
// at the capture writer and the decision trace lands next to the rounds.
func (cw *Writer) Write(r trace.Round) error { return cw.WriteDecision(r) }

// Close writes the open round, the index record and the footer, and
// flushes. The writer must not be reused.
func (cw *Writer) Close() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.closed {
		return nil
	}
	if err := cw.flush(); err != nil {
		return err
	}
	cw.closed = true
	idxOff := cw.off
	ix := cw.idx
	ix.PerStream = cw.stats
	for i := range ix.PerStream {
		st := &ix.PerStream[i]
		st.SizeMin = max(st.SizeMin, 0)
		if span := st.LastTSNanos - st.FirstTSNanos; span > 0 && st.Packets > 1 {
			st.MeanRate = float64(st.Packets-1) / (float64(span) / 1e9)
		}
	}
	body, err := json.Marshal(ix)
	if err != nil {
		return err
	}
	if err := cw.writeRecord(RecIndex, body); err != nil {
		return err
	}
	var footer [footerLen]byte
	copy(footer[:4], footerMagic[:])
	binary.BigEndian.PutUint64(footer[4:], uint64(idxOff))
	if _, err := cw.w.Write(footer[:]); err != nil {
		return err
	}
	return cw.w.Flush()
}

// readHeader reads the magic, the version and the session header. Like
// every capture read, it fails cleanly — an error wrapping ErrCorrupt,
// never a panic or an unbounded allocation — on truncated, corrupted or
// implausible input.
func readHeader(br *bufio.Reader) (SessionMeta, error) {
	var meta SessionMeta
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return meta, corruptf("reading magic: %v", err)
	}
	if [4]byte(magic[:4]) != Magic || magic[4] != Version {
		if string(magic[:3]) == "PGC" {
			return meta, corruptf("%q version %d is not read: this reader reads %q version %d",
				magic[:4], magic[4], Magic[:], Version)
		}
		return meta, corruptf("bad magic %q", magic[:4])
	}
	kind, body, err := container.ReadRecord(br, maxRecordBody, nil)
	switch {
	case err != nil:
		return meta, corruptf("session header: %v", err)
	case RecordKind(kind) != RecSession:
		return meta, corruptf("first record is kind %d, want session header", kind)
	}
	if err := json.Unmarshal(body, &meta); err != nil {
		return meta, corruptf("session header: %v", err)
	}
	if len(meta.Streams) == 0 || len(meta.Streams) > 1<<20 {
		return meta, corruptf("implausible stream count %d", len(meta.Streams))
	}
	return meta, nil
}

// readFooter reads the 12-byte footer, which is all that may follow the
// index record.
func readFooter(br *bufio.Reader) error {
	var footer [footerLen]byte
	if _, err := io.ReadFull(br, footer[:]); err != nil {
		return corruptf("footer: %v", err)
	}
	if [4]byte(footer[:4]) != footerMagic {
		return corruptf("bad footer magic %q", footer[:4])
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return corruptf("trailing bytes after footer")
	}
	return nil
}

// parseIndex decodes an index record and sanity-checks it against the
// session header.
func parseIndex(body []byte, streams int) (*Index, error) {
	var ix Index
	if err := json.Unmarshal(body, &ix); err != nil {
		return nil, corruptf("index record: %v", err)
	}
	if ix.Packets < 0 || ix.Rounds < 0 || ix.Decisions < 0 || ix.DurationNanos < 0 {
		return nil, corruptf("index with negative counters")
	}
	if len(ix.PerStream) > streams {
		return nil, corruptf("index covers %d streams, session has %d", len(ix.PerStream), streams)
	}
	var total int64
	for i := range ix.PerStream {
		st := &ix.PerStream[i]
		if st.ID < 0 || st.ID >= streams {
			return nil, corruptf("index entry for unknown stream %d", st.ID)
		}
		if st.Packets < 0 || st.Bytes < 0 || st.Keyframes < 0 ||
			st.SizeMin < 0 || st.SizeMax < 0 || st.FirstTSNanos < 0 || st.LastTSNanos < st.FirstTSNanos {
			return nil, corruptf("index entry for stream %d has negative fields", st.ID)
		}
		total += st.Packets
	}
	if total != ix.Packets {
		return nil, corruptf("index packet counts disagree: %d per-stream vs %d total", total, ix.Packets)
	}
	return &ix, nil
}

// ReadIndex opens a capture by its footer: it reads the session header and
// seeks straight to the index record, never touching round bodies — the
// fast path behind the `pgcap map` verb.
func ReadIndex(rs io.ReadSeeker) (SessionMeta, Index, error) {
	meta, err := readHeader(bufio.NewReader(rs))
	if err != nil {
		return SessionMeta{}, Index{}, err
	}
	end, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return SessionMeta{}, Index{}, err
	}
	if end < footerLen {
		return SessionMeta{}, Index{}, corruptf("file too short for a footer")
	}
	if _, err := rs.Seek(end-footerLen, io.SeekStart); err != nil {
		return SessionMeta{}, Index{}, err
	}
	var footer [footerLen]byte
	if _, err := io.ReadFull(rs, footer[:]); err != nil {
		return SessionMeta{}, Index{}, corruptf("footer: %v", err)
	}
	if [4]byte(footer[:4]) != footerMagic {
		return SessionMeta{}, Index{}, corruptf("bad footer magic %q", footer[:4])
	}
	off := binary.BigEndian.Uint64(footer[4:])
	if off > uint64(end-footerLen) || off < 5 {
		return SessionMeta{}, Index{}, corruptf("index offset %d out of bounds", off)
	}
	if _, err := rs.Seek(int64(off), io.SeekStart); err != nil {
		return SessionMeta{}, Index{}, err
	}
	kind, body, err := container.ReadRecord(bufio.NewReader(io.LimitReader(rs, end-footerLen-int64(off))), maxRecordBody, nil)
	if err != nil {
		return SessionMeta{}, Index{}, corruptf("index record: %v", err)
	}
	if RecordKind(kind) != RecIndex {
		return SessionMeta{}, Index{}, corruptf("footer points at kind-%d record, want index", kind)
	}
	ix, err := parseIndex(body, len(meta.Streams))
	if err != nil {
		return SessionMeta{}, Index{}, err
	}
	return meta, *ix, nil
}
