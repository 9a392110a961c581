// Package container holds the two byte layouts every format of this
// reproduction is built from. The packet record (MarshalPacket,
// UnmarshalPacketInto) carries one packet's metadata and payload inside PGC
// captures, PGSP frames and PGCP round frames, so packet gating reads
// metadata straight out of the container without decoding — the role MP4
// demuxing plays in the paper's offline-video use case. The CRC record
// (record.go: kind u8 · length u32 · crc32 u32 · body) frames PGC capture
// records, PGCP frames and the cluster journal, and ReadBody is the one rule
// for reading a body whose length came off the wire.
package container

import (
	"encoding/binary"
	"fmt"

	"packetgame/internal/codec"
)

// MarshalPacket appends the wire encoding of one packet record to dst:
// seq(8) pts(8) type(1) gopIndex(2) gopSize(2) size(4) payloadLen(4) payload.
func MarshalPacket(dst []byte, p *codec.Packet) []byte {
	var tmp [29]byte
	binary.BigEndian.PutUint64(tmp[0:], uint64(p.Seq))
	binary.BigEndian.PutUint64(tmp[8:], uint64(p.PTS))
	tmp[16] = byte(p.Type)
	binary.BigEndian.PutUint16(tmp[17:], uint16(p.GOPIndex))
	binary.BigEndian.PutUint16(tmp[19:], uint16(p.GOPSize))
	binary.BigEndian.PutUint32(tmp[21:], uint32(p.Size))
	binary.BigEndian.PutUint32(tmp[25:], uint32(len(p.Payload)))
	dst = append(dst, tmp[:]...)
	return append(dst, p.Payload...)
}

// UnmarshalPacketInto decodes a record produced by MarshalPacket into *p and
// returns the number of bytes consumed. It is the one parser of the record:
// every field of *p is overwritten (StreamID and Codec with zero; callers
// fill them from context), and p.Payload aliases data — nil when the payload
// is empty — so it is valid only while the caller keeps data alive and
// unmodified. On error *p is untouched.
func UnmarshalPacketInto(p *codec.Packet, data []byte) (int, error) {
	if len(data) < 29 {
		return 0, fmt.Errorf("container: record truncated: %d bytes", len(data))
	}
	plen := int(binary.BigEndian.Uint32(data[25:]))
	if len(data) < 29+plen {
		return 0, fmt.Errorf("container: payload truncated: have %d, need %d", len(data)-29, plen)
	}
	t := codec.PictureType(data[16])
	if t > codec.PictureB {
		return 0, fmt.Errorf("container: invalid picture type %d", t)
	}
	*p = codec.Packet{
		Seq:      int64(binary.BigEndian.Uint64(data[0:])),
		PTS:      int64(binary.BigEndian.Uint64(data[8:])),
		Type:     t,
		GOPIndex: int(binary.BigEndian.Uint16(data[17:])),
		GOPSize:  int(binary.BigEndian.Uint16(data[19:])),
		Size:     int(binary.BigEndian.Uint32(data[21:])),
	}
	if plen > 0 {
		p.Payload = data[29 : 29+plen : 29+plen]
	}
	return 29 + plen, nil
}

// UnmarshalPacket is UnmarshalPacketInto for callers that keep the packet
// past the life of data: a fresh packet with its own copy of the payload.
func UnmarshalPacket(data []byte) (*codec.Packet, int, error) {
	p := new(codec.Packet)
	n, err := UnmarshalPacketInto(p, data)
	if err != nil {
		return nil, 0, err
	}
	if p.Payload != nil {
		p.Payload = append([]byte(nil), p.Payload...)
	}
	return p, n, nil
}
