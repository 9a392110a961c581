// Package capture implements PGC, the PacketGame capture container: a
// compact indexed recording of a live PGSP session. A capture holds every
// packet of the session with its arrival timestamp and round index, the
// gate's decision trace (per-round selected set, effective budget B_eff,
// degradation-ladder mode, and feedback verdicts) interleaved at the
// position it was settled, and a trailing index with per-stream metadata
// (packet rate, GOP structure, size histograms, priority tier) so tools can
// map a capture directory without scanning packet bodies.
//
// Captures turn the synthetic-generator-driven test and bench layer into a
// corpus-driven one, the way GopherCap does for PCAPs: replaying a capture
// with its recorded inter-packet timing preserves the bursts that actually
// stress the system (a flat average rate provably flattens them), and
// replaying its packets through a fresh gate while diffing against the
// embedded decision trace is a free determinism audit.
//
// File layout (all integers big-endian):
//
//	magic   "PGC1" (4 bytes)
//	version byte   (currently 1)
//	records until EOF or footer, each an internal/container CRC record:
//	    kind    uint8    // recSession | recPacket | recTrace | recIndex
//	    length  uint32   // body length in bytes
//	    crc     uint32   // CRC32 (IEEE) of the body
//	    body    [length]byte
//	footer  "PGCX" (4 bytes) + uint64 offset of the index record
//
// The first record must be recSession (JSON SessionMeta); the last is
// recIndex (JSON Index), addressed by the footer so indexed opens never
// scan. recPacket bodies are binary:
//
//	stream  uint32
//	round   uint64
//	ts      uint64   // nanoseconds since capture start
//	record  ...      // container.MarshalPacket encoding
//
// recTrace bodies are the JSON encoding of one trace.Round. Every body is
// CRC-protected; a reader must fail cleanly on truncation, corruption, or
// implausible lengths — never panic or over-read (FuzzCaptureContainer).
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
var Magic = [4]byte{'P', 'G', 'C', '1'}

// footerMagic opens the 12-byte footer that addresses the index record.
var footerMagic = [4]byte{'P', 'G', 'C', 'X'}

// Version is the current container version.
const Version = 1

// RecordKind tags one record in a capture.
type RecordKind uint8

const (
	// RecSession is the JSON session header (first record).
	RecSession RecordKind = 1
	// RecPacket is one captured packet with timestamp and round.
	RecPacket RecordKind = 2
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
	// packetPrefixLen is the binary prefix of a recPacket body.
	packetPrefixLen = 20
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
// recording writes packets from the source goroutine while the gate's
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

	idx       Index
	stats     []StreamStats
	lastRound int64
	lastTS    time.Duration
	haveRound bool
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

// Session returns the session header.
func (cw *Writer) Session() SessionMeta { return cw.meta }

// writeRecord appends one framed record. Callers hold mu (or are still
// single-goroutine, during construction/close).
func (cw *Writer) writeRecord(kind RecordKind, body []byte) error {
	n, err := container.WriteRecord(cw.w, uint8(kind), body)
	cw.off += int64(n)
	return err
}

// WritePacket appends one captured packet. ts is the packet's offset from
// capture start; packets must arrive in non-decreasing (ts, round) order —
// replay streams captures without buffering, so out-of-order input is an
// error at write time rather than a surprise at replay time.
func (cw *Writer) WritePacket(ts time.Duration, round int64, p *codec.Packet) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.closed {
		return errors.New("capture: writer closed")
	}
	if p.StreamID < 0 || p.StreamID >= len(cw.stats) {
		return fmt.Errorf("capture: packet for stream %d of %d", p.StreamID, len(cw.stats))
	}
	if ts < 0 {
		return fmt.Errorf("capture: negative timestamp %v", ts)
	}
	if cw.idx.Packets > 0 && (ts < cw.lastTS || round < cw.lastRound) {
		return fmt.Errorf("capture: out-of-order packet (ts %v round %d after ts %v round %d)",
			ts, round, cw.lastTS, cw.lastRound)
	}
	if !cw.haveRound || round != cw.lastRound {
		cw.idx.Rounds++
		cw.haveRound = true
	}
	cw.lastTS, cw.lastRound = ts, round

	var prefix [packetPrefixLen]byte
	binary.BigEndian.PutUint32(prefix[0:], uint32(p.StreamID))
	binary.BigEndian.PutUint64(prefix[4:], uint64(round))
	binary.BigEndian.PutUint64(prefix[12:], uint64(ts))
	cw.buf = append(cw.buf[:0], prefix[:]...)
	if cw.StripPayloads && len(p.Payload) > 0 {
		stripped := *p
		stripped.Payload = nil
		cw.buf = container.MarshalPacket(cw.buf, &stripped)
	} else {
		cw.buf = container.MarshalPacket(cw.buf, p)
	}
	if err := cw.writeRecord(RecPacket, cw.buf); err != nil {
		return err
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
	if ns := ts.Nanoseconds(); ns > cw.idx.DurationNanos {
		cw.idx.DurationNanos = ns
	}
	return nil
}

// WriteDecision appends one decision-trace round.
func (cw *Writer) WriteDecision(r trace.Round) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.closed {
		return errors.New("capture: writer closed")
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
// at the capture writer and the decision trace lands next to the packets.
func (cw *Writer) Write(r trace.Round) error { return cw.WriteDecision(r) }

// Index returns the index as accumulated so far.
func (cw *Writer) Index() Index {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.indexLocked()
}

func (cw *Writer) indexLocked() Index {
	ix := cw.idx
	ix.PerStream = make([]StreamStats, len(cw.stats))
	copy(ix.PerStream, cw.stats)
	for i := range ix.PerStream {
		st := &ix.PerStream[i]
		if st.SizeMin < 0 {
			st.SizeMin = 0
		}
		if span := st.LastTSNanos - st.FirstTSNanos; span > 0 && st.Packets > 1 {
			st.MeanRate = float64(st.Packets-1) / (float64(span) / 1e9)
		}
	}
	return ix
}

// Close writes the index record and footer and flushes. The writer must not
// be reused.
func (cw *Writer) Close() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.closed {
		return nil
	}
	cw.closed = true
	idxOff := cw.off
	body, err := json.Marshal(cw.indexLocked())
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

// Record is one decoded capture record.
type Record struct {
	Kind RecordKind

	// Packet fields (RecPacket).
	StreamID int
	Round    int64
	TS       time.Duration
	Packet   *codec.Packet

	// Trace holds the decision round (RecTrace).
	Trace *trace.Round

	// Index holds the trailing index (RecIndex).
	Index *Index
}

// Reader reads a capture sequentially. It validates framing, CRCs, and
// plausibility bounds on every record: a truncated or corrupted capture
// yields an error wrapping ErrCorrupt, never a panic or an unbounded
// allocation.
type Reader struct {
	r       *bufio.Reader
	meta    SessionMeta
	buf     []byte
	sawIdx  bool
	done    bool
	packets int64
}

// NewReader opens a capture stream and parses its session header.
func NewReader(r io.Reader) (*Reader, error) {
	cr := &Reader{r: bufio.NewReaderSize(r, 64<<10)}
	var magic [5]byte
	if _, err := io.ReadFull(cr.r, magic[:]); err != nil {
		return nil, corruptf("reading magic: %v", err)
	}
	if [4]byte(magic[:4]) != Magic {
		return nil, corruptf("bad magic %q", magic[:4])
	}
	if magic[4] != Version {
		return nil, corruptf("unsupported version %d", magic[4])
	}
	kind, body, err := cr.readRecord()
	if err != nil {
		return nil, err
	}
	if kind != RecSession {
		return nil, corruptf("first record is kind %d, want session header", kind)
	}
	if err := json.Unmarshal(body, &cr.meta); err != nil {
		return nil, corruptf("session header: %v", err)
	}
	if len(cr.meta.Streams) == 0 {
		return nil, corruptf("session header has no streams")
	}
	if len(cr.meta.Streams) > 1<<20 {
		return nil, corruptf("implausible stream count %d", len(cr.meta.Streams))
	}
	return cr, nil
}

// Session returns the session header.
func (cr *Reader) Session() SessionMeta { return cr.meta }

// Packets returns the number of packet records read so far.
func (cr *Reader) Packets() int64 { return cr.packets }

// readRecord reads one record, its body into the reader's recycled buffer.
// The file ending at a record boundary is io.EOF; anything else that stops
// a record is corruption.
func (cr *Reader) readRecord() (RecordKind, []byte, error) {
	if _, err := cr.r.Peek(1); err == io.EOF {
		return 0, nil, io.EOF
	}
	kind, body, err := container.ReadRecord(cr.r, maxRecordBody, cr.buf)
	if err != nil {
		return 0, nil, corruptf("record: %v", err)
	}
	cr.buf = body
	return RecordKind(kind), body, nil
}

// Next returns the next record, or io.EOF after the footer (or a clean
// truncation at a record boundary with no index — a capture cut mid-write
// is still readable up to its last intact record, but Index records the
// loss by its absence).
func (cr *Reader) Next() (Record, error) {
	if cr.done {
		return Record{}, io.EOF
	}
	if cr.sawIdx {
		// Only the 12-byte footer may follow the index record.
		var footer [footerLen]byte
		if _, err := io.ReadFull(cr.r, footer[:]); err != nil {
			return Record{}, corruptf("footer: %v", err)
		}
		if [4]byte(footer[:4]) != footerMagic {
			return Record{}, corruptf("bad footer magic %q", footer[:4])
		}
		if _, err := cr.r.ReadByte(); err != io.EOF {
			return Record{}, corruptf("trailing bytes after footer")
		}
		cr.done = true
		return Record{}, io.EOF
	}
	kind, body, err := cr.readRecord()
	if err == io.EOF {
		cr.done = true
		return Record{}, io.EOF
	}
	if err != nil {
		return Record{}, err
	}
	switch kind {
	case RecPacket:
		rec, err := cr.decodePacket(body)
		if err != nil {
			return Record{}, err
		}
		cr.packets++
		return rec, nil
	case RecTrace:
		var tr trace.Round
		if err := json.Unmarshal(body, &tr); err != nil {
			return Record{}, corruptf("trace record: %v", err)
		}
		return Record{Kind: RecTrace, Trace: &tr}, nil
	case RecIndex:
		var ix Index
		if err := json.Unmarshal(body, &ix); err != nil {
			return Record{}, corruptf("index record: %v", err)
		}
		if err := validateIndex(&ix, len(cr.meta.Streams)); err != nil {
			return Record{}, err
		}
		cr.sawIdx = true
		return Record{Kind: RecIndex, Index: &ix}, nil
	case RecSession:
		return Record{}, corruptf("duplicate session header")
	default:
		return Record{}, corruptf("unknown record kind %d", kind)
	}
}

func (cr *Reader) decodePacket(body []byte) (Record, error) {
	if len(body) < packetPrefixLen {
		return Record{}, corruptf("packet record truncated: %d bytes", len(body))
	}
	id := binary.BigEndian.Uint32(body[0:])
	round := int64(binary.BigEndian.Uint64(body[4:]))
	ts := int64(binary.BigEndian.Uint64(body[12:]))
	if int(id) >= len(cr.meta.Streams) {
		return Record{}, corruptf("packet for unknown stream %d", id)
	}
	if round < 0 || ts < 0 {
		return Record{}, corruptf("packet with negative round/timestamp")
	}
	p, used, err := container.UnmarshalPacket(body[packetPrefixLen:])
	if err != nil {
		return Record{}, corruptf("packet body: %v", err)
	}
	if used != len(body)-packetPrefixLen {
		return Record{}, corruptf("packet record has trailing bytes")
	}
	p.StreamID = int(id)
	if c, err := codec.ParseCodec(cr.meta.Streams[id].Codec); err == nil {
		p.Codec = c
	}
	return Record{Kind: RecPacket, StreamID: int(id), Round: round,
		TS: time.Duration(ts), Packet: p}, nil
}

// validateIndex sanity-checks an index against the session header.
func validateIndex(ix *Index, streams int) error {
	if ix.Packets < 0 || ix.Rounds < 0 || ix.Decisions < 0 || ix.DurationNanos < 0 {
		return corruptf("index with negative counters")
	}
	if len(ix.PerStream) > streams {
		return corruptf("index covers %d streams, session has %d", len(ix.PerStream), streams)
	}
	var total int64
	for i := range ix.PerStream {
		st := &ix.PerStream[i]
		if st.ID < 0 || st.ID >= streams {
			return corruptf("index entry for unknown stream %d", st.ID)
		}
		if st.Packets < 0 || st.Bytes < 0 || st.Keyframes < 0 ||
			st.SizeMin < 0 || st.SizeMax < 0 || st.FirstTSNanos < 0 || st.LastTSNanos < st.FirstTSNanos {
			return corruptf("index entry for stream %d has negative fields", st.ID)
		}
		total += st.Packets
	}
	if total != ix.Packets {
		return corruptf("index packet counts disagree: %d per-stream vs %d total", total, ix.Packets)
	}
	return nil
}

// ReadIndex opens a capture by its footer: it reads the session header and
// seeks straight to the index record, never touching packet bodies — the
// fast path behind the `pgcap map` verb.
func ReadIndex(rs io.ReadSeeker) (SessionMeta, Index, error) {
	cr, err := NewReader(rs)
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
	var ix Index
	if err := json.Unmarshal(body, &ix); err != nil {
		return SessionMeta{}, Index{}, corruptf("index record: %v", err)
	}
	if err := validateIndex(&ix, len(cr.meta.Streams)); err != nil {
		return SessionMeta{}, Index{}, err
	}
	return cr.meta, ix, nil
}
