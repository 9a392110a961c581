package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"

	"packetgame/internal/codec"
)

// FuzzPGSPFrame throws arbitrary bytes at the v2 frame reader. Invariants:
// never panic, never allocate a body from a hostile length field, and after
// ErrFrameCRC the reader stays frame-aligned (the next read starts at the
// next header, so a valid trailing frame is still recovered).
func FuzzPGSPFrame(f *testing.F) {
	valid := AppendFrame(nil, 3, 1, []byte("packet body"))
	f.Add(valid)
	f.Add(AppendGoodbye(nil, 9))
	f.Add(AppendFrame(nil, 0, 0, nil))
	// Body corruption: CRC mismatch, framing intact.
	crcBad := append([]byte(nil), valid...)
	crcBad[len(crcBad)-1] ^= 0x01
	f.Add(crcBad)
	// Header corruption scrambles round/stream/length/crc fields.
	hdrBad := append([]byte(nil), valid...)
	hdrBad[5] ^= 0xFF
	f.Add(hdrBad)
	// Truncations: mid-header and mid-body.
	f.Add(valid[:frameHeaderLen-3])
	f.Add(valid[:frameHeaderLen+4])
	// A length field promising far more than maxFrameBody.
	huge := AppendFrame(nil, 1, 2, []byte("x"))
	huge[12], huge[13], huge[14], huge[15] = 0xFF, 0xFF, 0xFF, 0xFF
	f.Add(huge)
	// A corrupt frame followed by a valid one: alignment must survive.
	f.Add(append(append([]byte(nil), crcBad...), valid...))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for i := 0; i < 1000; i++ {
			_, _, body, err := readFrame(br, &buf)
			switch {
			case err == nil, errors.Is(err, errGoodbye):
				// keep reading
			case errors.Is(err, ErrFrameCRC):
				// Framing is intact by contract: the next readFrame must
				// start exactly one frame later, so keep reading.
				if body != nil {
					t.Fatal("CRC-failed frame must not surface a body")
				}
			default:
				return // desync or EOF: reader is done
			}
		}
	})
}

// roundBodies builds the round-body seeds: a valid three-stream body at
// m = 4, and bodies or widths that each break one rule of the format.
func roundBodies() (valid []byte, bad []struct {
	name string
	m    int
	body []byte
}) {
	fleet := mkFactory(4, 3)()
	var enc RoundEncoder
	pkts := []*codec.Packet{fleet[0].Next(), fleet[1].Next(), fleet[2].Next()}
	valid = enc.AppendBody(nil, &codec.Round{M: 4, IDs: []int32{0, 2, 3}, Pkts: pkts})
	// Stream 0's entry, then a gap of 2^64−1: read as a signed step it
	// lands back on stream 0.
	entry := enc.AppendBody(nil, &codec.Round{M: 4, IDs: []int32{0}, Pkts: pkts[:1]})[1:]
	wrap := append([]byte{2}, entry...)
	wrap = binary.AppendUvarint(wrap, math.MaxUint64)
	wrap = append(wrap, entry[1:]...)
	bad = []struct {
		name string
		m    int
		body []byte
	}{
		{"count above m", 2, valid},
		{"id out of range", 3, valid},
		{"gap wraps to a used id", 4, wrap},
		{"truncated", 4, valid[:len(valid)-1]},
		{"trailing bytes", 4, append(append([]byte(nil), valid...), 0)},
		{"overlong count", 4, []byte{0x80, 0}},
		{"empty", 4, nil},
	}
	return valid, bad
}

// FuzzPGSPRoundBody throws arbitrary bodies and fleet widths at the round
// frame decoder, the one data frame PGSP servers send. Invariants: never
// panic; a decoded round is valid at width m; and it re-encodes to exactly
// the bytes it came from — so a count above m, an id out of range, a
// truncation, trailing bytes or an overlong uvarint cannot decode.
func FuzzPGSPRoundBody(f *testing.F) {
	valid, bad := roundBodies()
	f.Add(uint16(4), valid)
	f.Add(uint16(4), []byte{0}) // an empty round
	for _, b := range bad {
		f.Add(uint16(b.m), b.body)
	}
	f.Fuzz(func(t *testing.T, m uint16, data []byte) {
		var r codec.Round
		if err := DecodeRoundBody(data, make([]StreamInfo, m), &r); err != nil {
			return
		}
		if err := r.Validate(); err != nil || r.M != int(m) {
			t.Fatalf("decoded an invalid round at m=%d: %v", m, err)
		}
		for k, id := range r.IDs {
			if r.Pkts[k].StreamID != int(id) {
				t.Fatalf("entry %d: packet of stream %d filed under %d", k, r.Pkts[k].StreamID, id)
			}
		}
		var enc RoundEncoder
		if again := enc.AppendBody(nil, &r); !bytes.Equal(again, data) {
			t.Fatalf("decoded body re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}

// TestRoundBodyRejects pins the decoder's error on each malformed body
// class the fuzz target's invariant covers.
func TestRoundBodyRejects(t *testing.T) {
	valid, bad := roundBodies()
	var r codec.Round
	for _, b := range bad {
		if err := DecodeRoundBody(b.body, make([]StreamInfo, b.m), &r); err == nil {
			t.Errorf("%s: decoded without error", b.name)
		}
	}
	if err := DecodeRoundBody(valid, make([]StreamInfo, 4), &r); err != nil || r.Len() != 3 {
		t.Fatalf("valid body: %d entries, %v", r.Len(), err)
	}
}

// TestRoundFrameZeroAlloc: a steady-state round, its body appended into a
// reused buffer and framed onto a buffered writer, allocates nothing — the
// send loop of stream.Server and of capture.ServeReplay.
func TestRoundFrameZeroAlloc(t *testing.T) {
	valid, _ := roundBodies()
	var r codec.Round
	if err := DecodeRoundBody(valid, make([]StreamInfo, 4), &r); err != nil {
		t.Fatal(err)
	}
	var enc RoundEncoder
	var body []byte
	bw := bufio.NewWriter(io.Discard)
	round := func() {
		body = enc.AppendBody(body[:0], &r)
		if err := WriteRoundFrame(bw, 7, body); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("a round frame allocates %.1f objects", avg)
	}
}

// TestReadFrameZeroAlloc: reading a frame into a recycled body buffer
// allocates nothing — the header is parsed in the reader's own buffer — and
// a cut keeps its meaning: io.EOF before a header, io.ErrUnexpectedEOF
// inside one.
func TestReadFrameZeroAlloc(t *testing.T) {
	frame := AppendFrame(nil, 5, 2, []byte("round body"))
	src := bytes.NewReader(frame)
	br := bufio.NewReader(src)
	var buf []byte
	read := func() {
		src.Reset(frame)
		br.Reset(src)
		if _, _, body, err := readFrame(br, &buf); err != nil || string(body) != "round body" {
			t.Fatalf("readFrame = %q, %v", body, err)
		}
	}
	read()
	if avg := testing.AllocsPerRun(100, read); avg != 0 {
		t.Fatalf("a frame read allocates %.1f objects", avg)
	}
	if _, _, _, err := readFrame(br, &buf); err != io.EOF {
		t.Fatalf("read past the last frame: %v, want io.EOF", err)
	}
	br.Reset(bytes.NewReader(frame[:frameHeaderLen-1]))
	if _, _, _, err := readFrame(br, &buf); err != io.ErrUnexpectedEOF {
		t.Fatalf("frame cut inside its header: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestFrameAlignmentAfterCRCError pins the skip-and-continue contract with a
// deterministic case: corrupt frame, then a valid one the reader must reach.
func TestFrameAlignmentAfterCRCError(t *testing.T) {
	bad := AppendFrame(nil, 0, 0, []byte("first"))
	bad[len(bad)-2] ^= 0x40
	buf := append(bad, AppendFrame(nil, 1, 2, []byte("second"))...)
	br := bufio.NewReader(bytes.NewReader(buf))
	var own []byte
	if _, _, _, err := readFrame(br, &own); !errors.Is(err, ErrFrameCRC) {
		t.Fatalf("want ErrFrameCRC, got %v", err)
	}
	round, stream, body, err := readFrame(br, &own)
	if err != nil {
		t.Fatalf("reader lost alignment after CRC error: %v", err)
	}
	if round != 1 || stream != 2 || string(body) != "second" {
		t.Fatalf("recovered frame = (%d, %d, %q)", round, stream, body)
	}
	if _, _, _, err := readFrame(br, &own); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestFrameRejectsHostileLength ensures a corrupt length field fails fast
// instead of allocating gigabytes.
func TestFrameRejectsHostileLength(t *testing.T) {
	frame := AppendFrame(nil, 0, 0, []byte("tiny"))
	frame[12], frame[13] = 0xFF, 0xFF // length ≈ 4 GiB
	var own []byte
	_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), &own)
	if err == nil || errors.Is(err, ErrFrameCRC) {
		t.Fatalf("hostile length must be a hard framing error, got %v", err)
	}
	// A length inside the bound is still only a claim: with nothing behind
	// the header the reader allocates for what arrived, not for the claim.
	binary.BigEndian.PutUint32(frame[12:], maxFrameBody)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, body, err := readFrame(bufio.NewReader(bytes.NewReader(frame[:frameHeaderLen])), &own)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF || body != nil {
		t.Fatalf("header promising %d bytes, then EOF: %d bytes, %v", maxFrameBody, len(body), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
		t.Fatalf("reader allocated %d bytes for a body that never came", grew)
	}
}
