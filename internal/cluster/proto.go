package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"slices"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/container"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/overload"
	"packetgame/internal/predictor"
)

// PGCP — the PacketGame cluster protocol — runs over one TCP connection per
// peer (link.go opens, accepts and identifies them, and reads and writes the
// frames; this file only encodes and decodes bodies, in memory). After a
// handshake ("PGCP" + version), both sides exchange frames, each one
// internal/container CRC record whose kind is the frame type:
//
//	type(u8) · bodyLen(u32) · crc32(u32, IEEE over body) · body
//
// The per-round hot frames (round, candidates, grant, report) are
// hand-encoded big-endian so a 10k-stream round does not pay reflection per
// packet. Every other body is gob: the three hellos and their replies
// (join→welcome, standby-join→snapshot-offer, rejoin→takeover), the
// sequenced control payloads (retire, state, fresh-adopt), standby address
// lists, finals, and the journal records inside journal-append frames. They
// are rare and their payloads are deep config/state structs that evolve by
// adding fields, which gob tolerates in both directions; they stay gob until
// explicit encoders replace them (ROADMAP item 4).
const (
	protoMagic = "PGCP"
	// Version 2 made the hot frames sparse: round frames delta-code their
	// membership against the previous round on the same connection, and
	// candidates/grant frames carry gap-coded varint stream ids. A 1%-active
	// fleet pays O(active) bytes and decode work per round instead of O(m).
	//
	// Version 3 adds fail-over: report frames carry monitor/estimator deltas
	// (crash-proof accounting), standbys follow the coordinator's journal via
	// snapshot-offer/journal-append frames, and workers re-home to an elected
	// standby with rejoin/takeover frames.
	protoVersion = 3
)

// Frame types.
const (
	fJoin uint8 = iota + 1
	fWelcome
	fRetire      // coordinator→worker: export+reset these streams, reply fState
	fState       // either direction: serialized stream states
	fStateAck    // worker→coordinator: state batch applied
	fImportFresh // coordinator→worker: adopt these streams with no state
	fRound       // coordinator→worker: round packets + plan
	fCandidates  // worker→coordinator: scored candidates for the global solve
	fGrant       // coordinator→worker: selected streams, global order
	fReport      // worker→coordinator: round settled, observed latency
	fHeartbeat   // worker→coordinator: liveness
	fFinal       // worker→coordinator: end-of-run stats
	fGoodbye     // either direction: orderly shutdown

	// Fail-over frames (v3).
	fStandbyJoin   // standby→coordinator: follow the journal
	fSnapshotOffer // coordinator→standby: current snapshot record body
	fJournalAppend // coordinator→standby: one journal record (kind + body)
	fRejoin        // worker→standby: re-home (or reconcile) after primary death
	fTakeover      // standby→worker: rejoin verdict after election
	fStandbys      // coordinator→worker: current standby address list
)

// maxFrameBody bounds one frame body (a 10k-stream round of ~1KB packets
// fits with wide margin).
const maxFrameBody = 256 << 20

// JoinInfo is the worker's join request (gob).
type JoinInfo struct {
	// Name is a diagnostic label; placement and identity use the
	// coordinator-assigned worker ID.
	Name string
}

// ClusterConfig is the shared gate configuration every worker must agree on,
// shipped in the welcome frame. Predictor weights are never transferred:
// predictor construction is deterministic from the config (seeded init), so
// every worker — and the single-gate oracle — materializes identical
// weights locally.
type ClusterConfig struct {
	Streams     int
	Window      int
	Budget      float64
	Costs       decode.CostModel
	Breaker     *core.BreakerConfig
	UsePred     bool
	Predictor   predictor.Config
	TaskIndex   int
	UseTemporal bool
	Task        string
	Retry       decode.RetryPolicy
	// HeartbeatEvery is the worker's heartbeat period; LeaseNs is the
	// coordinator's silence tolerance.
	HeartbeatEvery time.Duration
}

// Welcome is the coordinator's admission reply (gob).
type Welcome struct {
	WorkerID     int
	Epoch        uint64
	CurrentRound int64
	Cfg          ClusterConfig
	// Standbys lists the addresses workers should re-home to if this
	// coordinator dies; fStandbys frames update the list as standbys attach.
	Standbys []string
}

// StandbyJoin is a standby replica's follow request (gob). Addr is the
// standby's own listener, broadcast to workers as a re-home target.
type StandbyJoin struct {
	Name string
	Addr string
}

// RejoinInfo is a worker's re-home request to an elected standby (gob).
// Clock is the next round the worker's gate expects; Deltas carries the
// observations accumulated since its last successful report so nothing
// beyond one round is lost to the primary's death. ReconcileOnly marks an
// orphaned worker that finished its local rounds and only wants its
// observations folded in, not a seat in the ring.
type RejoinInfo struct {
	WorkerID      int
	Epoch         uint64
	Clock         int64
	Name          string
	ReconcileOnly bool
	Deltas        AccDeltas
}

// TakeoverInfo is the standby's verdict on a rejoin (gob).
type TakeoverInfo struct {
	Accepted bool
	Reason   string
	Epoch    uint64
	Resume   int64
	Standbys []string
}

// StreamBlob is one migrating stream's complete state (gob): the gate state
// (estimator window, feature row, tracker, breaker phase) plus the
// inference-monitor state.
type StreamBlob struct {
	Stream  int
	Gate    core.StreamState
	Monitor infer.MonitorState
}

// WorkerFinal is the worker's end-of-run accounting (gob).
type WorkerFinal struct {
	Rounds       int64
	Decoded      int64
	DecodeFailed int64
	NegRounds    int64
	NegCorrect   int64
	PosRounds    int64
	PosCorrect   int64
	Shed         int64
	Deferred     int64
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(body []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// answer decodes a hello's reply into v: a frame of type want, unless err.
func answer(typ uint8, body []byte, err error, want uint8, v any) error {
	if err == nil && typ != want {
		err = fmt.Errorf("cluster: expected reply frame %d, got %d", want, typ)
	}
	if err == nil {
		err = gobDecode(body, v)
	}
	return err
}

// A control body is seq(u64) · gob payload: retire, state and fresh-adopt
// requests and their state/ack replies carry it so the coordinator can match
// a reply to its request. A nil payload — the ack — is the sequence number
// alone.
func encodeCtrl(seq uint64, v any) ([]byte, error) {
	body := binary.BigEndian.AppendUint64(nil, seq)
	if v == nil {
		return body, nil
	}
	payload, err := gobEncode(v)
	return append(body, payload...), err
}

func decodeCtrl(body []byte, v any) (uint64, error) {
	if len(body) < 8 {
		return 0, fmt.Errorf("cluster: control frame too short")
	}
	seq := binary.BigEndian.Uint64(body[:8])
	if v == nil {
		return seq, nil
	}
	return seq, gobDecode(body[8:], v)
}

// --- round frame (coordinator → worker, v2 sparse/delta) ---
//
// round(u64) · bEff(f64) · mode(u8) ·
// gone(uvarint count, then gap-coded ascending ids)  ·
// added(uvarint count, then gap-coded ascending ids) ·
// then one entry per *current* member, in ascending stream order:
//   codec(u8) · truthFlag(u8) · [truth 37B] · plen(uvarint) · packet[plen]
//
// Membership (which streams this worker receives) is delta-coded against
// the previous round frame on the same connection; a fresh connection
// starts from the empty set. Gap coding (id minus previous id minus 1,
// first id verbatim) makes ascending order and uniqueness structural within
// each list; the decoder still validates gone ⊆ previous and added ∩ kept
// = ∅, so a corrupt peer yields an error, never a panic or a silent skew.
// A stable fleet therefore pays two zero-count varints plus the active
// entries — O(active) bytes — and the decoder touches no O(m) state.
//
// The packet encoding is container.MarshalPacket's, length-prefixed here so
// the decoder can bound each entry before parsing it. Ground truth rides
// along for recall accounting only: the redundancy feedback ("necessary")
// depends solely on decoded scenes, so decision equality never depends on
// the truth relay.

const sceneLen = 37

// packetRecordHeader is the fixed part of container.MarshalPacket's record;
// the payload follows it, so a record's length is known before it is written.
const packetRecordHeader = 29

func appendScene(dst []byte, s codec.Scene) []byte {
	var b [sceneLen]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(s.Frame))
	binary.BigEndian.PutUint64(b[8:16], math.Float64bits(s.Richness))
	binary.BigEndian.PutUint64(b[16:24], math.Float64bits(s.Motion))
	binary.BigEndian.PutUint32(b[24:28], uint32(s.PersonCount))
	var fl byte
	if s.Anomaly {
		fl |= 1
	}
	if s.Fire {
		fl |= 2
	}
	if s.QualityDrop {
		fl |= 4
	}
	b[28] = fl
	binary.BigEndian.PutUint64(b[29:37], math.Float64bits(s.Activity))
	return append(dst, b[:]...)
}

func parseScene(b []byte) (codec.Scene, error) {
	if len(b) < sceneLen {
		return codec.Scene{}, fmt.Errorf("cluster: truncated scene")
	}
	fl := b[28]
	return codec.Scene{
		Frame:       int64(binary.BigEndian.Uint64(b[0:8])),
		Richness:    math.Float64frombits(binary.BigEndian.Uint64(b[8:16])),
		Motion:      math.Float64frombits(binary.BigEndian.Uint64(b[16:24])),
		PersonCount: int(int32(binary.BigEndian.Uint32(b[24:28]))),
		Anomaly:     fl&1 != 0,
		Fire:        fl&2 != 0,
		QualityDrop: fl&4 != 0,
		Activity:    math.Float64frombits(binary.BigEndian.Uint64(b[29:37])),
	}, nil
}

type roundPacket struct {
	stream int
	pkt    *codec.Packet
	truth  codec.Scene
	hasT   bool
}

// readUvarint decodes one uvarint at off, returning the value and the new
// offset; truncated or overlong varints are errors.
func readUvarint(body []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(body[off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("cluster: bad varint at offset %d", off)
	}
	return v, off + n, nil
}

// readGapIDs decodes count gap-coded ids into dst[:0]; every id must land in
// [0, m). Gap coding makes the result strictly ascending by construction.
func readGapIDs(dst []int32, body []byte, off, count, m int) ([]int32, int, error) {
	dst = dst[:0]
	prev := int64(-1)
	for k := 0; k < count; k++ {
		gap, noff, err := readUvarint(body, off)
		if err != nil {
			return dst, off, err
		}
		off = noff
		if gap >= uint64(m) {
			return dst, off, fmt.Errorf("cluster: delta id gap %d out of range", gap)
		}
		id := prev + 1 + int64(gap)
		if id >= int64(m) {
			return dst, off, fmt.Errorf("cluster: delta stream id %d out of range [0,%d)", id, m)
		}
		prev = id
		dst = append(dst, int32(id))
	}
	return dst, off, nil
}

// encodeRoundDelta encodes one round frame against prev, the ascending
// membership sent on this connection's previous round frame (empty for a
// fresh connection). pkts must be ascending by stream — the coordinator's
// demux emits them that way.
func encodeRoundDelta(dst []byte, round int64, bEff float64, mode overload.Mode, pkts []roundPacket, prev []int32) []byte {
	var hdr [17]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(round))
	binary.BigEndian.PutUint64(hdr[8:16], math.Float64bits(bEff))
	hdr[16] = uint8(mode)
	dst = append(dst, hdr[:]...)

	// The gone ids (in prev, not in pkts), then the added ones (in pkts, not
	// in prev): per list, one O(prev + cur) merge walk counts (the uvarint
	// count precedes the list) and a second emits the gaps.
	for _, added := range [2]bool{false, true} {
		n := 0
		for emit := 0; emit < 2; emit++ {
			last, pi := int32(-1), 0
			delta := func(id int32) {
				if emit == 0 {
					n++
				} else {
					dst, last = binary.AppendUvarint(dst, uint64(id-last-1)), id
				}
			}
			for _, rp := range pkts {
				id := int32(rp.stream)
				for ; pi < len(prev) && prev[pi] < id; pi++ {
					if !added {
						delta(prev[pi])
					}
				}
				if pi < len(prev) && prev[pi] == id {
					pi++
				} else if added {
					delta(id)
				}
			}
			for ; pi < len(prev) && !added; pi++ {
				delta(prev[pi])
			}
			if emit == 0 {
				dst = binary.AppendUvarint(dst, uint64(n))
			}
		}
	}

	for _, rp := range pkts {
		dst = append(dst, uint8(rp.pkt.Codec))
		if rp.hasT {
			dst = append(dst, 1)
			dst = appendScene(dst, rp.truth)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.AppendUvarint(dst, uint64(packetRecordHeader+len(rp.pkt.Payload)))
		dst = container.MarshalPacket(dst, rp.pkt)
	}
	return dst
}

// roundMsg is the round record: one round as a worker's engine consumes it,
// in memory the record owns and the next round reuses. rnd holds the active
// streams sparsely and truth/hasT are parallel to rnd.IDs. For a round that
// came off the wire, body is the frame body as it was read, rnd.Pkts[k]
// points at pkts[k], and every Payload aliases body — nothing is copied out
// of the frame; an orphan round carries the local source's own packets and
// uses neither. gone/added are decode scratch. A worker has one record and
// decodes each round into it as the round is installed, so whatever it
// handed out dies with the round.
type roundMsg struct {
	round int64
	bEff  float64
	mode  overload.Mode
	rnd   codec.Round
	truth []codec.Scene
	hasT  []bool

	body        []byte
	pkts        []codec.Packet
	gone, added []int32
}

// decodeRoundDelta decodes a round frame against prev, this connection's
// membership after the previous round frame, into msg — reset, not
// reallocated: whatever msg held before is gone and none of it shows through.
// The packets' payloads alias body, which the caller keeps alive and
// unmodified for as long as msg is in use. On success msg.rnd.IDs is the
// new membership (the caller persists a copy as the next prev); on error the
// frame is rejected wholesale and prev must be kept. Every malformed input —
// truncated varints or entries, out-of-range ids, a gone id that was not a
// member, an added id that already was, trailing bytes — is an error, never
// a panic.
func decodeRoundDelta(body []byte, m int, prev []int32, msg *roundMsg) error {
	if len(body) < 17 {
		return fmt.Errorf("cluster: truncated round frame")
	}
	msg.round = int64(binary.BigEndian.Uint64(body[0:8]))
	msg.bEff = math.Float64frombits(binary.BigEndian.Uint64(body[8:16]))
	msg.mode = overload.Mode(body[16])
	off := 17

	nGone, off, err := readUvarint(body, off)
	if err != nil {
		return err
	}
	if nGone > uint64(len(prev)) {
		return fmt.Errorf("cluster: %d gone ids exceed membership %d", nGone, len(prev))
	}
	msg.gone, off, err = readGapIDs(msg.gone, body, off, int(nGone), m)
	if err != nil {
		return err
	}
	nAdded, off, err := readUvarint(body, off)
	if err != nil {
		return err
	}
	if nAdded > uint64(m) {
		return fmt.Errorf("cluster: %d added ids exceed fleet width %d", nAdded, m)
	}
	msg.added, off, err = readGapIDs(msg.added, body, off, int(nAdded), m)
	if err != nil {
		return err
	}

	msg.rnd.Reset(m)
	msg.truth = msg.truth[:0]
	msg.hasT = msg.hasT[:0]
	gone, added := msg.gone, msg.added
	// No frame yields more entries than this, so the arena is sized once and
	// the pointers handed to rnd.Pkts never move.
	msg.pkts = slices.Grow(msg.pkts[:0], len(prev)+len(added))
	pi, gi, ai := 0, 0, 0
	for {
		// Drop prev members named in gone; a gone id smaller than the next
		// surviving prev id was never a member.
		for pi < len(prev) && gi < len(gone) {
			if gone[gi] < prev[pi] {
				return fmt.Errorf("cluster: gone stream %d is not a member", gone[gi])
			}
			if gone[gi] > prev[pi] {
				break
			}
			pi++
			gi++
		}
		var id int32
		switch {
		case pi < len(prev) && ai < len(added):
			if added[ai] == prev[pi] {
				return fmt.Errorf("cluster: added stream %d is already a member", added[ai])
			}
			if added[ai] < prev[pi] {
				id = added[ai]
				ai++
			} else {
				id = prev[pi]
				pi++
			}
		case pi < len(prev):
			id = prev[pi]
			pi++
		case ai < len(added):
			id = added[ai]
			ai++
		default:
			if gi < len(gone) {
				return fmt.Errorf("cluster: gone stream %d is not a member", gone[gi])
			}
			if off != len(body) {
				return fmt.Errorf("cluster: %d trailing bytes after round frame", len(body)-off)
			}
			return nil
		}

		if len(body)-off < 2 {
			return fmt.Errorf("cluster: truncated round entry for stream %d", id)
		}
		cdc := codec.Codec(body[off])
		tflag := body[off+1]
		off += 2
		if tflag > 1 {
			return fmt.Errorf("cluster: bad truth flag %d for stream %d", tflag, id)
		}
		var sc codec.Scene
		if tflag == 1 {
			sc, err = parseScene(body[off:])
			if err != nil {
				return err
			}
			off += sceneLen
		}
		plen, noff, err := readUvarint(body, off)
		if err != nil {
			return err
		}
		off = noff
		if plen > uint64(len(body)-off) {
			return fmt.Errorf("cluster: packet length %d exceeds frame for stream %d", plen, id)
		}
		msg.pkts = msg.pkts[:len(msg.pkts)+1]
		p := &msg.pkts[len(msg.pkts)-1]
		n, err := container.UnmarshalPacketInto(p, body[off:off+int(plen)])
		if err != nil {
			return fmt.Errorf("cluster: round entry for stream %d: %w", id, err)
		}
		if n != int(plen) {
			return fmt.Errorf("cluster: packet length mismatch for stream %d: %d declared, %d parsed", id, plen, n)
		}
		p.StreamID = int(id)
		p.Codec = cdc
		off += int(plen)
		msg.rnd.Append(id, p)
		msg.truth = append(msg.truth, sc)
		msg.hasT = append(msg.hasT, tflag == 1)
	}
}

// --- candidates frame (worker → coordinator, v2 sparse) ---
//
// round(u64) · offeredCost(f64) · count(uvarint) ·
// count × gap-coded stream id (uvarint, ascending) ·
// count × { value(f64 bits) · cost(f64 bits) }
//
// A worker's candidates are its active streams only, ascending by id (the
// gate walks its active set in order), so gap coding applies directly.

func encodeCandidates(dst []byte, round int64, offered float64, cands []knapsack.Candidate) []byte {
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(round))
	binary.BigEndian.PutUint64(hdr[8:16], math.Float64bits(offered))
	dst = append(dst, hdr[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(cands)))
	prev := int32(-1)
	for _, c := range cands {
		dst = binary.AppendUvarint(dst, uint64(c.Stream-prev-1))
		prev = c.Stream
	}
	for _, c := range cands {
		var b [16]byte
		binary.BigEndian.PutUint64(b[0:8], math.Float64bits(c.Value))
		binary.BigEndian.PutUint64(b[8:16], math.Float64bits(c.Cost))
		dst = append(dst, b[:]...)
	}
	return dst
}

type candidatesMsg struct {
	round   int64
	offered float64
	cands   []knapsack.Candidate

	ids []int32 // decode scratch
}

// decodeCandidates decodes into msg, reusing its slices (the coordinator
// holds one scratch msg and folds each worker's candidates out of it before
// the next decode).
func decodeCandidates(body []byte, m int, msg *candidatesMsg) error {
	if len(body) < 16 {
		return fmt.Errorf("cluster: truncated candidates frame")
	}
	msg.round = int64(binary.BigEndian.Uint64(body[0:8]))
	msg.offered = math.Float64frombits(binary.BigEndian.Uint64(body[8:16]))
	// offered feeds the sender's demand EWMA and the latency model: a NaN
	// would poison the budget split for the rest of the run, a negative
	// value skew every share.
	if !(msg.offered >= 0) || math.IsInf(msg.offered, 1) {
		return fmt.Errorf("cluster: offered cost %v is not a finite non-negative number", msg.offered)
	}
	count, off, err := readUvarint(body, 16)
	if err != nil {
		return err
	}
	if count > uint64(m) {
		return fmt.Errorf("cluster: %d candidates exceed fleet width %d", count, m)
	}
	msg.ids, off, err = readGapIDs(msg.ids, body, off, int(count), m)
	if err != nil {
		return err
	}
	if len(body)-off != int(count)*16 {
		return fmt.Errorf("cluster: candidates frame %d value bytes for %d entries", len(body)-off, count)
	}
	msg.cands = msg.cands[:0]
	for _, id := range msg.ids {
		msg.cands = append(msg.cands, knapsack.Candidate{
			Stream: id,
			Value:  math.Float64frombits(binary.BigEndian.Uint64(body[off : off+8])),
			Cost:   math.Float64frombits(binary.BigEndian.Uint64(body[off+8 : off+16])),
		})
		off += 16
	}
	return nil
}

// --- grant frame (coordinator → worker, v2 sparse) ---
//
// round(u64) · count(uvarint) · count × stream(uvarint), in global selection
// order (ratio-ranked, not ascending — so ids are plain varints, not gaps).

func encodeGrant(dst []byte, round int64, streams []int) []byte {
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(round))
	dst = append(dst, hdr[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(streams)))
	for _, s := range streams {
		dst = binary.AppendUvarint(dst, uint64(s))
	}
	return dst
}

type grantMsg struct {
	round   int64
	streams []int
}

// decodeGrantInto decodes into msg, reusing its slice (the worker holds one
// and is through with it before the next grant).
func decodeGrantInto(body []byte, m int, msg *grantMsg) error {
	if len(body) < 8 {
		return fmt.Errorf("cluster: truncated grant frame")
	}
	msg.round = int64(binary.BigEndian.Uint64(body[0:8]))
	count, off, err := readUvarint(body, 8)
	if err != nil {
		return err
	}
	if count > uint64(m) {
		return fmt.Errorf("cluster: %d grants exceed fleet width %d", count, m)
	}
	msg.streams = msg.streams[:0]
	for k := uint64(0); k < count; k++ {
		var s uint64
		s, off, err = readUvarint(body, off)
		if err != nil {
			return err
		}
		if s >= uint64(m) {
			return fmt.Errorf("cluster: granted stream %d out of range [0,%d)", s, m)
		}
		msg.streams = append(msg.streams, int(s))
	}
	if off != len(body) {
		return fmt.Errorf("cluster: %d trailing bytes after grant frame", len(body)-off)
	}
	return nil
}

// --- report frame (worker → coordinator, v3 delta-coded) ---
//
// round(u64) · latencyNs(u64) · 7 × uvarint observation deltas
//
// The deltas are the worker's monitor/estimator counter advances since its
// previous successful report — delta-encoded like the sparse round frames,
// so a stable round costs a handful of single-byte varints. The coordinator
// folds them into its (journaled) report every round, which is what makes
// accuracy accounting crash-proof: a worker or coordinator death loses at
// most the one round whose report never landed.

// AccDeltas is one batch of monitor/estimator counter advances.
type AccDeltas struct {
	NegRounds    int64
	NegCorrect   int64
	PosRounds    int64
	PosCorrect   int64
	DecodeFailed int64
	Shed         int64
	Deferred     int64
}

func (a *AccDeltas) add(b AccDeltas) {
	for i, f := range b.fields() {
		*a.fields()[i] += *f
	}
}

func (a AccDeltas) sub(b AccDeltas) AccDeltas {
	for i, f := range b.fields() {
		*a.fields()[i] -= *f
	}
	return a
}

func (a *AccDeltas) fields() [7]*int64 {
	return [7]*int64{
		&a.NegRounds, &a.NegCorrect, &a.PosRounds, &a.PosCorrect,
		&a.DecodeFailed, &a.Shed, &a.Deferred,
	}
}

func encodeReport(round int64, latency time.Duration, d AccDeltas) []byte {
	return appendReport(make([]byte, 0, 16+7), round, latency, d)
}

func appendReport(dst []byte, round int64, latency time.Duration, d AccDeltas) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(round))
	dst = binary.BigEndian.AppendUint64(dst, uint64(latency))
	for _, f := range d.fields() {
		dst = binary.AppendUvarint(dst, uint64(*f))
	}
	return dst
}

type reportMsg struct {
	round   int64
	latency time.Duration
	deltas  AccDeltas
}

func decodeReport(body []byte) (reportMsg, error) {
	if len(body) < 16 {
		return reportMsg{}, fmt.Errorf("cluster: report frame length %d", len(body))
	}
	msg := reportMsg{
		round:   int64(binary.BigEndian.Uint64(body[0:8])),
		latency: time.Duration(binary.BigEndian.Uint64(body[8:16])),
	}
	if msg.round < 0 {
		return reportMsg{}, fmt.Errorf("cluster: negative report round %d", msg.round)
	}
	if msg.latency < 0 { // the governor reads a negative EWMA as "unset"
		return reportMsg{}, fmt.Errorf("cluster: negative report latency %d", msg.latency)
	}
	off := 16
	var err error
	for _, f := range msg.deltas.fields() {
		var v uint64
		v, off, err = readUvarint(body, off)
		if err != nil {
			return reportMsg{}, err
		}
		if v > math.MaxInt64 {
			return reportMsg{}, fmt.Errorf("cluster: report delta %d overflows", v)
		}
		*f = int64(v)
	}
	if off != len(body) {
		return reportMsg{}, fmt.Errorf("cluster: %d trailing bytes after report frame", len(body)-off)
	}
	return msg, nil
}
