// Package stream implements PGSP, the PacketGame stream protocol: a
// length-prefixed TCP protocol that muxes the encoded packets of many
// cameras toward an analytics server, standing in for the RTSP ingest of
// the paper's online use case. A Server paces synthetic camera fleets in
// rounds, one round frame each; a Client hands each round to the
// parser/gate as soon as its frame has been read.
package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/container"
)

// protocol constants.
var handshakeMagic = [4]byte{'P', 'G', 'S', 'P'}

// protocolVersion 2 added per-frame CRC32 and the goodbye end-of-session
// marker (see frame.go).
const protocolVersion = 2

// StreamInfo describes one muxed stream in the handshake.
type StreamInfo struct {
	Codec   codec.Codec
	FPS     int
	GOPSize int
}

// ServerConfig parameterizes a PGSP server.
type ServerConfig struct {
	// NewStreams builds a fresh camera fleet for each accepted connection
	// (streams are stateful, so connections cannot share them).
	NewStreams func() []*codec.Stream
	// Rounds is the number of rounds to send per connection (0 = until the
	// client disconnects).
	Rounds int
	// Realtime paces rounds at FPS (default: as fast as possible).
	Realtime bool
	// FPS is the pacing rate (default 25).
	FPS int
	// WriteTimeout bounds each round's write to a client (default 10s,
	// negative disables): a stalled client is disconnected instead of
	// wedging its serving goroutine forever.
	WriteTimeout time.Duration
	// Record, when non-nil, taps every packet of the first accepted
	// session, invoked synchronously from the serving goroutine with the
	// round index, stream slot, and packet. Only the first session is
	// tapped: each connection gets an independent fleet, so recording two
	// would interleave unrelated sessions into one capture.
	Record func(round int64, streamID int, p *codec.Packet)
}

// Server serves synthetic camera fleets over TCP.
type Server struct {
	cfg  ServerConfig
	ln   net.Listener
	wg   sync.WaitGroup
	stop chan struct{}

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	recorded bool // the Record tap has been claimed by a session
}

// Serve starts serving on ln. It returns immediately; Close or Shutdown
// stops it.
func Serve(ln net.Listener, cfg ServerConfig) (*Server, error) {
	if cfg.NewStreams == nil {
		return nil, errors.New("stream: ServerConfig.NewStreams is required")
	}
	if cfg.FPS == 0 {
		cfg.FPS = 25
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	s := &Server{cfg: cfg, ln: ln, stop: make(chan struct{}), conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the server gracefully with a 5-second force-close deadline.
func (s *Server) Close() error { return s.Shutdown(5 * time.Second) }

// Shutdown stops the server gracefully: the listener closes immediately (no
// new sessions), every active connection finishes the round it is writing,
// sends the goodbye marker, and closes — never cutting a client mid-frame.
// Connections still open after the deadline (a stalled peer) are
// force-closed; deadline 0 waits indefinitely. Safe to call more than once.
func (s *Server) Shutdown(deadline time.Duration) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stop)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var expired <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-done:
	case <-expired:
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			_ = s.serveConn(conn)
		}()
	}
}

// serveConn streams rounds to one client, one round frame each, until done,
// shutdown, or write error. Shutdown is only observed at round boundaries,
// so a client never sees a partial round before the goodbye marker.
func (s *Server) serveConn(conn net.Conn) error {
	record := s.claimRecord()
	streams := s.cfg.NewStreams()
	bw := bufio.NewWriterSize(conn, 64<<10)
	if s.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	if err := writeHandshake(bw, streams); err != nil {
		return err
	}
	interval := time.Second / time.Duration(s.cfg.FPS)
	var rnd codec.Round
	var enc RoundEncoder
	var body []byte
	next := time.Now()
	round := int64(0)
	for ; s.cfg.Rounds == 0 || round < int64(s.cfg.Rounds); round++ {
		select {
		case <-s.stop:
			return s.sayGoodbye(conn, bw, uint64(round))
		default:
		}
		if s.cfg.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		rnd.Reset(len(streams))
		for i, st := range streams {
			p := st.Next()
			if record != nil {
				record(round, i, p)
			}
			if p != nil {
				rnd.Append(int32(i), p)
			}
		}
		body = enc.AppendBody(body[:0], &rnd)
		if err := WriteRoundFrame(bw, uint64(round), body); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if s.cfg.Realtime {
			next = next.Add(interval)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
	}
	return s.sayGoodbye(conn, bw, uint64(round))
}

// claimRecord hands the Record tap to the first session that asks.
func (s *Server) claimRecord() func(int64, int, *codec.Packet) {
	if s.cfg.Record == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recorded {
		return nil
	}
	s.recorded = true
	return s.cfg.Record
}

// sayGoodbye writes the end-of-session marker so the client knows the
// session ended cleanly rather than by a reset.
func (s *Server) sayGoodbye(conn net.Conn, bw *bufio.Writer, round uint64) error {
	if s.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	if _, err := bw.Write(AppendGoodbye(nil, round)); err != nil {
		return err
	}
	return bw.Flush()
}

func writeHandshake(w *bufio.Writer, streams []*codec.Stream) error {
	infos := make([]StreamInfo, len(streams))
	for i, st := range streams {
		cfg := st.Encoder.Config()
		infos[i] = StreamInfo{Codec: cfg.Codec, FPS: cfg.FPS, GOPSize: cfg.GOPSize}
	}
	if err := WriteHandshake(w, infos); err != nil {
		return err
	}
	return w.Flush()
}

// WriteHandshake writes the PGSP handshake advertising the given streams. It
// is exported for replay tools that serve recorded sessions: the stream
// metadata comes from a capture's header instead of a live fleet.
func WriteHandshake(w io.Writer, infos []StreamInfo) error {
	if _, err := w.Write(handshakeMagic[:]); err != nil {
		return err
	}
	hdr := []byte{protocolVersion, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(infos)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, info := range infos {
		var meta [5]byte
		meta[0] = byte(info.Codec)
		binary.BigEndian.PutUint16(meta[1:], uint16(info.FPS))
		binary.BigEndian.PutUint16(meta[3:], uint16(info.GOPSize))
		if _, err := w.Write(meta[:]); err != nil {
			return err
		}
	}
	return nil
}

// Client consumes a PGSP session, one round per call.
type Client struct {
	conn  net.Conn
	br    *bufio.Reader
	infos []StreamInfo

	// round is the round NextRoundSparse hands out: a decoded round frame,
	// or per-stream frames gathered into denseScratch and compacted.
	// denseScratch is also NextRound's dense view.
	round        codec.Round
	denseScratch []*codec.Packet

	// The per-stream reader's lookahead: the frame that closed the last
	// gathered round is the first packet of the next.
	pending      *codec.Packet
	pendingRound int64
	havePending  bool

	// frame is the body buffer every frame is read into: both decoders copy
	// what they keep out of it, so a body is dead once next has parsed it.
	frame []byte

	eof        bool // the session ended (goodbye, reset or cut)
	goodbye    bool
	crcDropped int64
}

// Dial connects to a PGSP server and performs the handshake.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn)
}

// NewClient performs the PGSP handshake over an established connection —
// the injection point for wrapped (fault-injecting, instrumented) conns.
// It takes ownership of conn and closes it on handshake failure.
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
	if err := c.handshake(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *Client) handshake() error {
	var magic [5]byte
	if _, err := io.ReadFull(c.br, magic[:]); err != nil {
		return fmt.Errorf("stream: handshake: %w", err)
	}
	if [4]byte(magic[:4]) != handshakeMagic {
		return fmt.Errorf("stream: bad handshake magic %q", magic[:4])
	}
	if magic[4] != protocolVersion {
		return fmt.Errorf("stream: unsupported protocol version %d", magic[4])
	}
	var nbuf [4]byte
	if _, err := io.ReadFull(c.br, nbuf[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(nbuf[:])
	if n == 0 || n > 1<<20 {
		return fmt.Errorf("stream: implausible stream count %d", n)
	}
	// The count is a claim: the table grows as entries arrive, so a peer that
	// names a million streams and sends none costs nothing up front.
	var meta [5]byte
	for len(c.infos) < int(n) {
		if _, err := io.ReadFull(c.br, meta[:]); err != nil {
			return fmt.Errorf("stream: handshake entry %d of %d: %w", len(c.infos), n, err)
		}
		c.infos = append(c.infos, StreamInfo{
			Codec:   codec.Codec(meta[0]),
			FPS:     int(binary.BigEndian.Uint16(meta[1:])),
			GOPSize: int(binary.BigEndian.Uint16(meta[3:])),
		})
	}
	return nil
}

// Streams returns the per-stream metadata from the handshake.
func (c *Client) Streams() []StreamInfo { return c.infos }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// SawGoodbye reports whether the session ended with the server's clean
// end-of-session marker. After an io.EOF without it, the connection was
// reset or cut mid-frame — the signal a reconnecting client keys on.
func (c *Client) SawGoodbye() bool { return c.goodbye }

// CorruptDropped returns the number of frames the demuxer dropped for CRC
// mismatch.
func (c *Client) CorruptDropped() int64 { return c.crcDropped }

// next reads frames until one carries data. Frames failing their CRC are
// dropped (counted in CorruptDropped) and reading continues: the length
// field kept the reader frame-aligned, so one corrupt body must not kill
// the session (on a round frame, the round is lost). A round frame is
// decoded into c.round and p is nil; a per-stream frame returns its packet
// and round index. The end of the session — goodbye, reset or cut — sets
// c.eof and returns io.EOF.
func (c *Client) next() (p *codec.Packet, round int64, err error) {
	for {
		rnd, id, body, err := readFrame(c.br, &c.frame)
		switch {
		case err == nil:
		case errors.Is(err, ErrFrameCRC):
			c.crcDropped++
			continue
		case errors.Is(err, errGoodbye):
			c.goodbye, c.eof = true, true
			return nil, 0, io.EOF
		case err == io.EOF, errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, net.ErrClosed):
			c.eof = true
			return nil, 0, io.EOF
		default:
			return nil, 0, err
		}
		if id == sparseRoundStream {
			if err := DecodeRoundBody(body, c.infos, &c.round); err != nil {
				return nil, 0, err
			}
			return nil, int64(rnd), nil
		}
		p, used, err := container.UnmarshalPacket(body)
		if err != nil {
			return nil, 0, err
		}
		if used != len(body) {
			return nil, 0, fmt.Errorf("stream: message has trailing bytes")
		}
		if int(id) >= len(c.infos) {
			return nil, 0, fmt.Errorf("stream: message for unknown stream %d", id)
		}
		p.StreamID = int(id)
		p.Codec = c.infos[id].Codec
		return p, int64(rnd), nil
	}
}

// NextRoundSparse returns the next round as a sparse codec.Round holding
// only the active streams, valid until the next call. A round frame is
// handed over as soon as it has been read: O(active), nothing read past it,
// and an empty round is still a round. Per-stream frames are gathered until
// a frame of another round arrives (kept for the next call) or the session
// ends; a round frame among them is an error. It returns io.EOF once the
// session has ended and every round has been handed out.
func (c *Client) NextRoundSparse() (*codec.Round, error) {
	p, round := c.pending, c.pendingRound
	if c.havePending {
		c.havePending = false
	} else {
		if c.eof {
			return nil, io.EOF
		}
		var err error
		if p, round, err = c.next(); err != nil {
			return nil, err
		}
		if p == nil {
			return &c.round, nil
		}
	}
	c.round.Reset(len(c.infos))
	dense := c.round.Dense(&c.denseScratch) // an empty round's view: m nil slots
	dense[p.StreamID] = p
	for {
		q, r, err := c.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if q == nil {
			return nil, fmt.Errorf("stream: round frame %d inside per-stream round %d", r, round)
		}
		if r != round {
			c.pending, c.pendingRound, c.havePending = q, r, true
			break
		}
		if dense[q.StreamID] != nil {
			return nil, fmt.Errorf("stream: duplicate packet for stream %d in round %d", q.StreamID, r)
		}
		dense[q.StreamID] = q
	}
	c.round.FromDense(dense)
	return &c.round, nil
}

// NextRound is the dense view of NextRoundSparse: a slice indexed by stream
// ID with nil entries for streams that sent nothing this round, valid until
// the next call. It returns io.EOF once the session has ended and every
// round has been handed out.
func (c *Client) NextRound() ([]*codec.Packet, error) {
	r, err := c.NextRoundSparse()
	if err != nil {
		return nil, err
	}
	return r.Dense(&c.denseScratch), nil
}
