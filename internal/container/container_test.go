package container

import (
	"bytes"
	"testing"
	"testing/quick"

	"packetgame/internal/codec"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	f := func(seq, pts int64, typ uint8, gi, gs uint16, size uint32, payload []byte) bool {
		p := &codec.Packet{
			Seq: seq & 0x7fffffffffffffff, PTS: pts & 0x7fffffffffffffff,
			Type:     codec.PictureType(typ % 3),
			GOPIndex: int(gi), GOPSize: int(gs),
			Size:    int(size & 0x7fffffff),
			Payload: payload,
		}
		buf := MarshalPacket(nil, p)
		got, used, err := UnmarshalPacket(buf)
		if err != nil || used != len(buf) {
			return false
		}
		return got.Seq == p.Seq && got.PTS == p.PTS && got.Type == p.Type &&
			got.GOPIndex == p.GOPIndex && got.GOPSize == p.GOPSize &&
			got.Size == p.Size && bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, _, err := UnmarshalPacket([]byte{1, 2, 3}); err == nil {
		t.Error("short record must error")
	}
	p := &codec.Packet{Type: codec.PictureP, Payload: []byte{1, 2, 3}}
	buf := MarshalPacket(nil, p)
	if _, _, err := UnmarshalPacket(buf[:len(buf)-1]); err == nil {
		t.Error("truncated payload must error")
	}
	buf[16] = 7 // invalid picture type
	if _, _, err := UnmarshalPacket(buf); err == nil {
		t.Error("bad picture type must error")
	}
}
