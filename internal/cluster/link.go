package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"packetgame/internal/container"
)

// This file is the cluster's I/O shell: the only non-test code that dials,
// accepts, wraps a connection in buffers, speaks the preamble, arms a read
// deadline, or reads bytes off a connection. What happens on the wire when a
// peer connects, and whose memory a received frame lands in, is answered here.

// link is one PGCP connection. Sends may come from several goroutines (a
// round loop and a heartbeat pump share one); there is a single reader. The
// first write error, or close, kills the link for good: the connection is
// closed and every later send returns that same error.
type link struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	gone chan struct{} // closed when the link dies

	mu  sync.Mutex // serializes writers and guards err
	err error
}

func newLink(conn net.Conn) *link {
	return &link{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<20), // a 10k-stream round frame
		bw:   bufio.NewWriterSize(conn, 1<<20), // is a handful of syscalls
		gone: make(chan struct{}),
	}
}

// writeFrame writes one frame and flushes.
func writeFrame(bw *bufio.Writer, typ uint8, body []byte) error {
	if _, err := container.WriteRecord(bw, typ, body); err != nil {
		return err
	}
	return bw.Flush()
}

func (l *link) send(typ uint8, body []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		if err := writeFrame(l.bw, typ, body); err != nil {
			l.err = err
			close(l.gone)
			l.conn.Close()
		}
	}
	return l.err
}

// recv reads the next frame, waiting at most wait for it when wait > 0, and
// verifies the body checksum. The frame's type is peeked first; place then
// says which of the caller's buffers a frame of that type goes into, and the
// body is read into that buffer's storage (container.ReadBody's grow and
// shrink rules) and left there — the returned body aliases *place(typ) and is
// valid until the caller next offers that buffer. A nil place reads into
// fresh memory.
func (l *link) recv(wait time.Duration, place func(typ uint8) *[]byte) (uint8, []byte, error) {
	if wait > 0 {
		l.conn.SetReadDeadline(time.Now().Add(wait))
	}
	lead, err := l.br.Peek(1) // a frame's type leads its header
	if err != nil {
		return 0, nil, err
	}
	var fresh []byte
	buf := &fresh
	if place != nil {
		buf = place(lead[0])
	}
	typ, body, err := container.ReadRecord(l.br, maxFrameBody, *buf)
	if err != nil {
		return 0, nil, err
	}
	*buf = body
	return typ, body, nil
}

func (l *link) close() {
	l.conn.Close() // first: frees a writer stuck mid-frame, and with it the lock
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = errors.New("cluster: link closed")
		close(l.gone)
	}
}

func (l *link) alive() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err == nil
}

// beat sends an fHeartbeat carrying body() every d until the link dies.
func (l *link) beat(d time.Duration, body func() []byte) (err error) {
	t := time.NewTicker(d)
	defer t.Stop()
	for err == nil {
		select {
		case <-l.gone:
			return nil
		case <-t.C:
			err = l.send(fHeartbeat, body())
		}
	}
	return err
}

// preamble opens every connection, in both directions: magic, then version.
var preamble = binary.BigEndian.AppendUint16([]byte(protoMagic), protoVersion)

func writeHandshake(bw *bufio.Writer) error {
	bw.Write(preamble) // a bufio write error is sticky: Flush reports it
	return bw.Flush()
}

func readHandshake(br *bufio.Reader) error {
	var buf [6]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return err
	}
	if string(buf[:4]) != protoMagic {
		return fmt.Errorf("cluster: bad magic %q", buf[:4])
	}
	if v := binary.BigEndian.Uint16(buf[4:]); v != protoVersion {
		return fmt.Errorf("cluster: protocol version %d, want %d", v, protoVersion)
	}
	return nil
}

// dialLink opens a connection the way every PGCP client does — worker join,
// standby follow, worker re-join: dial (within dialTimeout when > 0), identify.
func dialLink(addr string, dialTimeout time.Duration, helloType uint8, hello any, wantType uint8, reply any, replyWait time.Duration) (*link, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	l := newLink(conn)
	if err := l.identify(helloType, hello, wantType, reply, replyWait); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// identify is the client half: preamble, a helloType frame carrying hello
// (gob), then the peer's first frame — a wantType, gob-decoded into reply —
// awaited for replyWait, or for as long as the peer takes when that is 0.
func (l *link) identify(helloType uint8, hello any, wantType uint8, reply any, replyWait time.Duration) error {
	body, err := gobEncode(hello)
	if err == nil {
		err = writeHandshake(l.bw)
	}
	if err == nil {
		err = l.send(helloType, body)
	}
	if err != nil {
		return err
	}
	typ, body, err := l.recv(replyWait, nil)
	if err != nil {
		return fmt.Errorf("cluster: awaiting reply frame %d: %w", wantType, err)
	}
	if typ != wantType {
		return fmt.Errorf("cluster: expected reply frame %d, got %d", wantType, typ)
	}
	l.conn.SetReadDeadline(time.Time{})
	return gobDecode(body, reply)
}

// pending is an accepted connection that has identified itself: typ is its
// hello frame's type, hello the gob body, decoded by whoever dequeues it.
type pending struct {
	*link
	typ   uint8
	hello []byte
}

// acceptLink is the server half: preamble, then the hello frame.
func acceptLink(conn net.Conn) (p *pending, err error) {
	p = &pending{link: newLink(conn)}
	if err = readHandshake(p.br); err == nil {
		p.typ, p.hello, err = p.recv(0, nil)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// serveLinks accepts until ln closes. Each peer identifies itself on its own
// goroutine (a slow one delays nobody) and is queued by hello type, or dropped
// when route has no queue for that type or stop closes first.
func serveLinks(ln net.Listener, stop <-chan struct{}, route func(typ uint8) chan<- *pending) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go func() {
			p, err := acceptLink(conn)
			if err != nil {
				return
			}
			if q := route(p.typ); q != nil {
				select {
				case q <- p:
					return
				case <-stop:
				}
			}
			p.close()
		}()
	}
}
