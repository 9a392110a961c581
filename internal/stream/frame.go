package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"packetgame/internal/codec"
	"packetgame/internal/container"
)

// PGSP v2 frame layout (all big-endian):
//
//	round   uint64   // round index the body belongs to
//	stream  uint32   // sparseRoundStream, goodbyeStream, or a stream slot
//	length  uint32   // body length in bytes
//	crc     uint32   // CRC32 (IEEE) of the body
//	body    [length]byte
//
// A round frame (sparseRoundStream) carries a whole round; a frame naming a
// stream slot carries that stream's one packet, and a reader can close such
// a round only when a frame of the next round arrives.
//
// The CRC lets the demuxer detect payload corruption on the wire and drop
// the frame instead of handing garbage to the parser. The goodbye frame
// (stream = goodbyeStream, empty body) marks a clean end of session, so a
// client can distinguish "server finished" from "connection reset mid-run"
// — the signal the reconnecting client keys on.

const frameHeaderLen = 20

// goodbyeStream is the reserved stream slot of the end-of-session marker.
const goodbyeStream = ^uint32(0)

// sparseRoundStream is the reserved stream slot of a round frame: the one
// data frame PGSP servers send, carrying a whole round and closing it. The
// body packs only the active streams:
//
//	count  uvarint   // number of active streams this round
//	repeat count times, in ascending stream order:
//	  gap    uvarint // stream id minus previous id minus 1 (first: the id)
//	  plen   uvarint // marshaled packet length
//	  packet [plen]byte // container.MarshalPacket encoding
//
// Gap coding makes ascending order and uniqueness structural: a decoder can
// reconstruct ids without sorting and duplicates cannot be expressed. Every
// uvarint is in its shortest form, so a body has exactly one encoding. An
// idle fleet costs one ~1-byte body per round instead of m frame headers.
const sparseRoundStream = ^uint32(0) - 1

// maxFrameBody bounds a frame body; larger lengths mean a corrupt or hostile
// header (framing is unrecoverable at that point, so it is an error, not a
// skip).
const maxFrameBody = 64 << 20

// ErrFrameCRC marks a frame whose body failed its checksum. The reader's
// framing is intact (the length field was consistent), so the caller may
// skip the frame and keep reading.
var ErrFrameCRC = errors.New("stream: frame CRC mismatch")

// errGoodbye is returned by readFrame for the end-of-session marker.
var errGoodbye = errors.New("stream: goodbye")

// AppendFrame appends one v2 per-stream frame (one packet body) to dst.
// Servers send round frames (WriteRoundFrame); Client still reads per-stream
// frames, closing such a round when the next round's first frame arrives.
func AppendFrame(dst []byte, round uint64, stream uint32, body []byte) []byte {
	return append(appendFrameHeader(dst, round, stream, body), body...)
}

// AppendGoodbye appends the end-of-session marker to dst.
func AppendGoodbye(dst []byte, round uint64) []byte {
	return AppendFrame(dst, round, goodbyeStream, nil)
}

// WriteRoundFrame writes a round body to w as one round frame with round
// index round. It is the one way a round frame is sent: stream.Server frames
// the bodies RoundEncoder appends, and capture.ServeReplay frames the bodies
// a capture stores. The header is built in w's free buffer space, so a
// steady-state frame allocates nothing.
func WriteRoundFrame(w *bufio.Writer, round uint64, body []byte) error {
	if _, err := w.Write(appendFrameHeader(w.AvailableBuffer(), round, sparseRoundStream, body)); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// appendFrameHeader appends the 20-byte v2 frame header for body to dst.
func appendFrameHeader(dst []byte, round uint64, stream uint32, body []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, round)
	dst = binary.BigEndian.AppendUint32(dst, stream)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
}

// RoundEncoder appends round bodies. It is the one round-body encoder: the
// bodies stream.Server sends and the bodies a PGC capture stores both come
// from it. Its packet scratch is reused, so the zero value is ready and a
// steady-state round allocates nothing.
type RoundEncoder struct {
	pkt []byte
}

// AppendBody appends round r's body (ids ascending, all below r.M) to dst.
func (e *RoundEncoder) AppendBody(dst []byte, r *codec.Round) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.IDs)))
	prev := int32(-1)
	for k, id := range r.IDs {
		dst = binary.AppendUvarint(dst, uint64(id-prev-1))
		prev = id
		e.pkt = container.MarshalPacket(e.pkt[:0], r.Pkts[k])
		dst = binary.AppendUvarint(dst, uint64(len(e.pkt)))
		dst = append(dst, e.pkt...)
	}
	return dst
}

// ShiftRoundBody appends body to dst with every stream id raised by by, for
// a replay that muxes several captures onto one slot range. Ids are gap
// coded, so only the first gap changes: one uvarint is re-encoded and the
// rest is copied.
func ShiftRoundBody(dst, body []byte, by int) ([]byte, error) {
	count, n := container.Uvarint(body)
	if n <= 0 {
		return dst, errors.New("stream: round body: bad count")
	}
	if count == 0 {
		return append(dst, body...), nil
	}
	gap, g := container.Uvarint(body[n:])
	if g <= 0 {
		return dst, errors.New("stream: round body: bad id gap")
	}
	dst = append(dst, body[:n]...)
	dst = binary.AppendUvarint(dst, gap+uint64(by))
	return append(dst, body[n+g:]...), nil
}

// DecodeRoundBody decodes a round body into r, which is Reset to the
// session's width len(infos); every packet is stamped with its stream id and
// that stream's codec, and owns its payload. It is the one round-body
// decoder: a PGSP client reads round frames and a PGC capture reads its
// stored rounds through it. Stream ids beyond the width, truncated bodies,
// trailing bytes or overlong uvarints are errors — a frame's CRC or a
// record's already passed, so any of these means a peer bug, not noise.
func DecodeRoundBody(body []byte, infos []StreamInfo, r *codec.Round) error {
	m := len(infos)
	r.Reset(m)
	count, n := container.Uvarint(body)
	if n <= 0 {
		return errors.New("stream: round body: bad count")
	}
	body = body[n:]
	if count > uint64(m) {
		return fmt.Errorf("stream: round body: %d entries for %d streams", count, m)
	}
	next := int64(0) // lowest id the next entry may name
	for i := uint64(0); i < count; i++ {
		gap, n := container.Uvarint(body)
		if n <= 0 {
			return errors.New("stream: round body: bad id gap")
		}
		body = body[n:]
		if gap >= uint64(int64(m)-next) {
			return fmt.Errorf("stream: round body: stream %d+%d out of range [0,%d)", next, gap, m)
		}
		id := next + int64(gap)
		next = id + 1
		plen, n := container.Uvarint(body)
		if n <= 0 {
			return errors.New("stream: round body: bad packet length")
		}
		body = body[n:]
		if plen > uint64(len(body)) {
			return errors.New("stream: round body: truncated packet")
		}
		p, used, err := container.UnmarshalPacket(body[:plen])
		if err != nil {
			return fmt.Errorf("stream: round body: %w", err)
		}
		if used != int(plen) {
			return errors.New("stream: round body: packet has trailing bytes")
		}
		body = body[plen:]
		p.StreamID = int(id)
		p.Codec = infos[id].Codec
		r.Append(int32(id), p)
	}
	if len(body) != 0 {
		return errors.New("stream: round body: trailing bytes")
	}
	return nil
}

// readFrame reads one v2 frame, the body into *buf's storage by
// container.ReadBody's grow and shrink rules, the ones PGCP frames and PGC
// records are read by: the returned body aliases *buf and is valid until the
// next call with the same buffer. On ErrFrameCRC the body was consumed and
// the reader remains frame-aligned; on errGoodbye the session ended cleanly;
// any other error leaves the reader unusable.
func readFrame(br *bufio.Reader, buf *[]byte) (round uint64, stream uint32, body []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err = io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	round = binary.BigEndian.Uint64(hdr[0:])
	stream = binary.BigEndian.Uint32(hdr[8:])
	n := binary.BigEndian.Uint32(hdr[12:])
	crc := binary.BigEndian.Uint32(hdr[16:])
	if n > maxFrameBody {
		return 0, 0, nil, fmt.Errorf("stream: frame of %d bytes exceeds limit", n)
	}
	if *buf, err = container.ReadBody(br, *buf, int(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a header promised a body: truncated frame
		}
		return 0, 0, nil, err
	}
	if crc32.ChecksumIEEE(*buf) != crc {
		return round, stream, nil, ErrFrameCRC
	}
	if stream == goodbyeStream {
		return round, stream, nil, errGoodbye
	}
	return round, stream, *buf, nil
}
