package container

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// recordHeaderLen is the framing overhead of one record: kind u8, body
// length u32 and the body's CRC32 (IEEE) u32, all big-endian.
const recordHeaderLen = 9

const (
	// bodyGrowStep is how far a body buffer first grows ahead of the bytes
	// that have arrived.
	bodyGrowStep = 1 << 20
	// bodyShrinkFloor is the capacity below which a body buffer is never
	// reallocated downward: shrinking small buffers only causes churn.
	bodyShrinkFloor = 64 << 10
)

// appendHeader appends the record header for body to dst.
func appendHeader(dst []byte, kind uint8, body []byte) []byte {
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
}

// AppendRecord appends one framed record to dst.
func AppendRecord(dst []byte, kind uint8, body []byte) []byte {
	return append(appendHeader(dst, kind, body), body...)
}

// WriteRecord writes one framed record to bw and returns the number of
// bytes written. Nothing is copied but into bw: the header is built in bw's
// free space.
func WriteRecord(bw *bufio.Writer, kind uint8, body []byte) (int, error) {
	n, err := bw.Write(appendHeader(bw.AvailableBuffer(), kind, body))
	if err != nil {
		return n, err
	}
	m, err := bw.Write(body)
	return n + m, err
}

// NextRecord parses the first record of buf and returns its kind, its body
// (a view of buf) and the bytes after it. limit bounds the claimed body
// length. A buffer that ends inside a record is an error, with rest == buf:
// callers that tolerate a torn tail stop there.
func NextRecord(buf []byte, limit uint32) (kind uint8, body, rest []byte, err error) {
	if len(buf) < recordHeaderLen {
		return 0, nil, buf, fmt.Errorf("container: truncated record header (%d bytes)", len(buf))
	}
	kind = buf[0]
	n := binary.BigEndian.Uint32(buf[1:])
	if n > limit {
		return 0, nil, buf, fmt.Errorf("container: record kind %d of %d bytes exceeds limit %d", kind, n, limit)
	}
	if uint32(len(buf)-recordHeaderLen) < n {
		return 0, nil, buf, fmt.Errorf("container: record kind %d truncated: %d of %d body bytes", kind, len(buf)-recordHeaderLen, n)
	}
	body = buf[recordHeaderLen : recordHeaderLen+int(n)]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(buf[5:]) {
		return 0, nil, buf, fmt.Errorf("container: record kind %d CRC mismatch (%d bytes)", kind, n)
	}
	return kind, body, buf[recordHeaderLen+int(n):], nil
}

// ReadRecord reads the next record from br, its body into buf's storage by
// ReadBody's rules, and returns the kind and the body: it aliases buf, or
// storage that replaces it, so the caller keeps the returned body as its
// next buf. It returns io.EOF when br ends before the record (or right
// after its header), io.ErrUnexpectedEOF when it ends inside one, and an
// error for a length over limit or a CRC mismatch; on any error the body is
// nil and the reader is not left at a record boundary.
func ReadRecord(br *bufio.Reader, limit uint32, buf []byte) (kind uint8, body []byte, err error) {
	hdr, err := br.Peek(recordHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	kind = hdr[0]
	n := binary.BigEndian.Uint32(hdr[1:])
	sum := binary.BigEndian.Uint32(hdr[5:])
	br.Discard(recordHeaderLen) // cannot fail: the bytes are buffered
	if n > limit {
		return 0, nil, fmt.Errorf("container: record kind %d of %d bytes exceeds limit %d", kind, n, limit)
	}
	if body, err = ReadBody(br, buf, int(n)); err != nil {
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(body) != sum {
		return 0, nil, fmt.Errorf("container: record kind %d CRC mismatch (%d bytes)", kind, n)
	}
	return kind, body, nil
}

// ReadBody reads an n-byte body into buf's storage and returns it. The
// length came off the wire, so the buffer grows only once the bytes it has
// room for have arrived — by bodyGrowStep, or by doubling once it is past
// that, never beyond n — and a corrupt or hostile length field costs in
// proportion to what the peer actually sends, never n up front. So one spike
// does not pin its buffer for a connection's lifetime, storage above the
// floor is reallocated down when a body needs under a quarter of it (the
// knapsack order scratch's rule). A body cut before its first byte is
// io.EOF, one cut later io.ErrUnexpectedEOF.
func ReadBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	if c := cap(buf); c > bodyShrinkFloor && n < c/4 {
		buf = make([]byte, 0, n)
	}
	buf = buf[:0]
	for len(buf) < n {
		k := len(buf)
		if k == cap(buf) {
			grown := make([]byte, k, k+max(min(n-k, bodyGrowStep), min(n-k, k)))
			copy(grown, buf)
			buf = grown
		}
		buf = buf[:min(n, cap(buf))]
		if _, err := io.ReadFull(r, buf[k:]); err != nil {
			if err == io.EOF && k > 0 {
				err = io.ErrUnexpectedEOF // the cut fell between two reads of one body
			}
			return buf[:0], err
		}
	}
	return buf, nil
}
