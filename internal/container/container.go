// Package container implements PGV, the offline video file format of this
// reproduction: a self-describing single-stream container (header with codec
// metadata, then length-prefixed packet records). It plays the role MP4
// files play in the paper's offline-video use case — packet gating reads
// packet metadata straight from the container without decoding.
package container

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"packetgame/internal/codec"
)

// Magic identifies PGV files.
var Magic = [4]byte{'P', 'G', 'V', '1'}

// Header carries the stream metadata stored at the front of a PGV file.
type Header struct {
	StreamID int
	Codec    codec.Codec
	FPS      int
	GOPSize  int
}

// MarshalPacket appends the wire encoding of one packet record to dst:
// seq(8) pts(8) type(1) gopIndex(2) gopSize(2) size(4) payloadLen(4) payload.
// The record is used both by PGV files and the PGSP stream protocol.
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

// Writer writes a PGV file.
type Writer struct {
	w      *bufio.Writer
	hdr    Header
	buf    []byte
	wrote  bool
	closed bool
	count  int64
}

// NewWriter starts a PGV file with the given header.
func NewWriter(w io.Writer, hdr Header) (*Writer, error) {
	if hdr.FPS <= 0 {
		return nil, fmt.Errorf("container: FPS must be positive, got %d", hdr.FPS)
	}
	return &Writer{w: bufio.NewWriter(w), hdr: hdr}, nil
}

func (w *Writer) writeHeader() error {
	if _, err := w.w.Write(Magic[:]); err != nil {
		return err
	}
	var hdr [13]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(w.hdr.StreamID))
	hdr[4] = byte(w.hdr.Codec)
	binary.BigEndian.PutUint32(hdr[5:], uint32(w.hdr.FPS))
	binary.BigEndian.PutUint32(hdr[9:], uint32(w.hdr.GOPSize))
	_, err := w.w.Write(hdr[:])
	return err
}

// WritePacket appends one packet record.
func (w *Writer) WritePacket(p *codec.Packet) error {
	if w.closed {
		return errors.New("container: writer closed")
	}
	if !w.wrote {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.wrote = true
	}
	w.buf = MarshalPacket(w.buf[:0], p)
	var lenHdr [4]byte
	binary.BigEndian.PutUint32(lenHdr[:], uint32(len(w.buf)))
	if _, err := w.w.Write(lenHdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns the number of packets written.
func (w *Writer) Count() int64 { return w.count }

// Close flushes the file. The writer must not be reused.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if !w.wrote {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

// Reader reads a PGV file.
type Reader struct {
	r   *bufio.Reader
	hdr Header
	buf []byte
}

// NewReader opens a PGV stream and parses its header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("container: reading magic: %w", err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("container: bad magic %q", magic[:])
	}
	var hdr [13]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("container: reading header: %w", err)
	}
	return &Reader{r: br, hdr: Header{
		StreamID: int(binary.BigEndian.Uint32(hdr[0:])),
		Codec:    codec.Codec(hdr[4]),
		FPS:      int(binary.BigEndian.Uint32(hdr[5:])),
		GOPSize:  int(binary.BigEndian.Uint32(hdr[9:])),
	}}, nil
}

// Header returns the file header.
func (r *Reader) Header() Header { return r.hdr }

// Next returns the next packet, or io.EOF at end of file.
func (r *Reader) Next() (*codec.Packet, error) {
	var lenHdr [4]byte
	if _, err := io.ReadFull(r.r, lenHdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("container: reading record length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenHdr[:])
	if n > 64<<20 {
		return nil, fmt.Errorf("container: record of %d bytes exceeds limit", n)
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return nil, fmt.Errorf("container: reading record: %w", err)
	}
	p, used, err := UnmarshalPacket(r.buf)
	if err != nil {
		return nil, err
	}
	if used != int(n) {
		return nil, fmt.Errorf("container: record has %d trailing bytes", int(n)-used)
	}
	p.StreamID = r.hdr.StreamID
	p.Codec = r.hdr.Codec
	return p, nil
}
