package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// FuzzPGSPFrame throws arbitrary bytes at the v2 frame reader. Invariants:
// never panic, never allocate a body from a hostile length field, and after
// ErrFrameCRC the reader stays frame-aligned (the next read starts at the
// next header, so a valid trailing frame is still recovered).
func FuzzPGSPFrame(f *testing.F) {
	valid := appendFrame(nil, 3, 1, []byte("packet body"))
	f.Add(valid)
	f.Add(appendGoodbye(nil, 9))
	f.Add(appendFrame(nil, 0, 0, nil))
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
	huge := appendFrame(nil, 1, 2, []byte("x"))
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

// TestFrameAlignmentAfterCRCError pins the skip-and-continue contract with a
// deterministic case: corrupt frame, then a valid one the reader must reach.
func TestFrameAlignmentAfterCRCError(t *testing.T) {
	bad := appendFrame(nil, 0, 0, []byte("first"))
	bad[len(bad)-2] ^= 0x40
	buf := append(bad, appendFrame(nil, 1, 2, []byte("second"))...)
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
	frame := appendFrame(nil, 0, 0, []byte("tiny"))
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
