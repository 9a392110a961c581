package container

import (
	"bytes"
	"reflect"
	"testing"

	"packetgame/internal/codec"
)

// FuzzUnmarshalPacket exercises the record codec directly and differentially:
// any input must either round out to a packet or error, without panicking,
// and UnmarshalPacketInto over a dirty packet must agree with UnmarshalPacket
// on every field, the consumed count and the error text — with its payload
// a view of the input where UnmarshalPacket's is a copy.
func FuzzUnmarshalPacket(f *testing.F) {
	st := codec.NewStream(codec.SceneConfig{}, codec.EncoderConfig{GOPSize: 5}, 11)
	rec := MarshalPacket(nil, st.Next())
	f.Add(rec)
	f.Add(rec[:len(rec)-1])
	f.Add(rec[:5]) // truncated mid-header
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	crc := append([]byte(nil), rec...)
	crc[len(crc)-1] ^= 0xff // corrupted record tail
	f.Add(crc)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, n, err := UnmarshalPacket(data)
		dirty := codec.Packet{StreamID: 9, Seq: -1, PTS: -1, Type: codec.PictureB, Codec: codec.H265,
			Size: 1 << 30, GOPIndex: 7, GOPSize: 7, Payload: []byte("stale")}
		was := dirty
		into := dirty
		nInto, errInto := UnmarshalPacketInto(&into, data)
		if (err == nil) != (errInto == nil) || (err != nil && err.Error() != errInto.Error()) {
			t.Fatalf("errors differ: %v vs %v", err, errInto)
		}
		if err != nil {
			if nInto != 0 || !reflect.DeepEqual(into, was) {
				t.Fatalf("rejected record consumed %d bytes or touched the packet: %+v", nInto, into)
			}
			return
		}
		if p == nil {
			t.Fatal("nil packet without error")
		}
		if n <= 0 || n > len(data) || nInto != n {
			t.Fatalf("consumed %d / %d of %d bytes", n, nInto, len(data))
		}
		if !reflect.DeepEqual(*p, into) {
			t.Fatalf("packets differ:\n%+v\n%+v", *p, into)
		}
		if len(into.Payload) > 0 && &into.Payload[0] != &data[29] {
			t.Fatal("UnmarshalPacketInto copied the payload")
		}
		if len(p.Payload) > 0 && &p.Payload[0] == &data[29] {
			t.Fatal("UnmarshalPacket's payload aliases its input")
		}
	})
}

// TestUnmarshalPacketIntoZeroAlloc pins the in-place parser at no allocation.
func TestUnmarshalPacketIntoZeroAlloc(t *testing.T) {
	st := codec.NewStream(codec.SceneConfig{}, codec.EncoderConfig{GOPSize: 5}, 11)
	rec := MarshalPacket(nil, st.Next())
	var p codec.Packet
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := UnmarshalPacketInto(&p, rec); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("UnmarshalPacketInto allocates %.1f objects per record", avg)
	}
	if len(p.Payload) == 0 || &p.Payload[0] != &rec[29] {
		t.Fatal("payload does not alias the record")
	}
}
