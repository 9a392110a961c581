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
// Servers send round frames (RoundEncoder); Client still reads per-stream
// frames, closing such a round when the next round's first frame arrives.
func AppendFrame(dst []byte, round uint64, stream uint32, body []byte) []byte {
	return appendFrame(dst, round, stream, body)
}

// RoundEncoder frames whole rounds as PGSP round frames. It is the one PGSP
// encoder: stream.Server and capture.ServeReplay both send through it. Its
// buffers are reused, so the zero value is ready and a steady-state round
// allocates nothing.
type RoundEncoder struct {
	pkt, body, frame []byte
}

// Encode returns round r (ids ascending, all below r.M) framed as one round
// frame with round index round. The bytes are valid until the next call.
func (e *RoundEncoder) Encode(round uint64, r *codec.Round) []byte {
	e.body = appendSparseRoundBody(e.body[:0], r.IDs, r.Pkts, &e.pkt)
	e.frame = appendFrame(e.frame[:0], round, sparseRoundStream, e.body)
	return e.frame
}

// AppendGoodbye appends the end-of-session marker to dst.
func AppendGoodbye(dst []byte, round uint64) []byte {
	return appendGoodbye(dst, round)
}

// appendFrame appends one v2 frame to dst.
func appendFrame(dst []byte, round uint64, stream uint32, body []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[0:], round)
	binary.BigEndian.PutUint32(hdr[8:], stream)
	binary.BigEndian.PutUint32(hdr[12:], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(body))
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// appendGoodbye appends the end-of-session marker.
func appendGoodbye(dst []byte, round uint64) []byte {
	return appendFrame(dst, round, goodbyeStream, nil)
}

// appendSparseRoundBody appends the sparse round body for the given active
// packets (ids ascending, pkts parallel). scratch recycles the per-packet
// marshal buffer across calls.
func appendSparseRoundBody(dst []byte, ids []int32, pkts []*codec.Packet, scratch *[]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	prev := int32(-1)
	for k, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id-prev-1))
		prev = id
		*scratch = container.MarshalPacket((*scratch)[:0], pkts[k])
		dst = binary.AppendUvarint(dst, uint64(len(*scratch)))
		dst = append(dst, *scratch...)
	}
	return dst
}

// uvarint reads a uvarint in its shortest form. An overlong encoding (a
// final zero byte after the first) reads as malformed, n <= 0, so a body
// that decodes re-encodes to the same bytes.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -n
	}
	return v, n
}

// decodeSparseRoundBody decodes a sparse round body into r, which is Reset
// to width m. Stream ids beyond m, truncated bodies, or trailing bytes are
// errors — the frame CRC already passed, so any of these means a peer bug,
// not wire noise.
func decodeSparseRoundBody(body []byte, m int, r *codec.Round) error {
	r.Reset(m)
	count, n := uvarint(body)
	if n <= 0 {
		return errors.New("stream: sparse round: bad count")
	}
	body = body[n:]
	if count > uint64(m) {
		return fmt.Errorf("stream: sparse round: %d entries for %d streams", count, m)
	}
	next := int64(0) // lowest id the next entry may name
	for i := uint64(0); i < count; i++ {
		gap, n := uvarint(body)
		if n <= 0 {
			return errors.New("stream: sparse round: bad id gap")
		}
		body = body[n:]
		if gap >= uint64(int64(m)-next) {
			return fmt.Errorf("stream: sparse round: stream %d+%d out of range [0,%d)", next, gap, m)
		}
		id := next + int64(gap)
		next = id + 1
		plen, n := uvarint(body)
		if n <= 0 {
			return errors.New("stream: sparse round: bad packet length")
		}
		body = body[n:]
		if plen > uint64(len(body)) {
			return errors.New("stream: sparse round: truncated packet")
		}
		p, used, err := container.UnmarshalPacket(body[:plen])
		if err != nil {
			return fmt.Errorf("stream: sparse round: %w", err)
		}
		if used != int(plen) {
			return errors.New("stream: sparse round: packet has trailing bytes")
		}
		body = body[plen:]
		p.StreamID = int(id)
		r.Append(int32(id), p)
	}
	if len(body) != 0 {
		return errors.New("stream: sparse round: trailing bytes")
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
