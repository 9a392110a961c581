// Package stream implements PGSP, the PacketGame stream protocol: a
// length-prefixed TCP protocol that muxes the encoded packets of many
// cameras toward an analytics server, standing in for the RTSP ingest of
// the paper's online use case. A Server paces synthetic camera fleets in
// rounds; a Client demuxes packets (round-aligned) into the parser/gate.
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
	// SparseRounds packs each round into one frame carrying only the active
	// streams (see sparseRoundStream in frame.go) instead of one frame per
	// stream. Rounds demux identically on a current Client — packets, round
	// grouping, and NextRound results are unchanged — but the per-round wire
	// cost drops from m frame headers to one, and NextRoundSparse consumes
	// the round with O(active) work. Opt-in: clients predating the sparse
	// frame reject the reserved stream id.
	SparseRounds bool
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

// serveConn streams rounds to one client until done, shutdown, or write
// error. Shutdown is only observed at round boundaries, so a client never
// sees a partial round before the goodbye marker.
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
	var body, frame, rbody []byte
	var ids []int32
	var pkts []*codec.Packet
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
		if s.cfg.SparseRounds {
			ids, pkts = ids[:0], pkts[:0]
			for i, st := range streams {
				p := st.Next()
				if record != nil {
					record(round, i, p)
				}
				if p == nil {
					continue
				}
				ids = append(ids, int32(i))
				pkts = append(pkts, p)
			}
			rbody = appendSparseRoundBody(rbody[:0], ids, pkts, &body)
			frame = appendFrame(frame[:0], uint64(round), sparseRoundStream, rbody)
			if _, err := bw.Write(frame); err != nil {
				return err
			}
		} else {
			for i, st := range streams {
				p := st.Next()
				if record != nil {
					record(round, i, p)
				}
				body = container.MarshalPacket(body[:0], p)
				frame = appendFrame(frame[:0], uint64(round), uint32(i), body)
				if _, err := bw.Write(frame); err != nil {
					return err
				}
			}
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
	if _, err := bw.Write(appendGoodbye(nil, round)); err != nil {
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

// Client consumes a PGSP session.
type Client struct {
	conn  net.Conn
	br    *bufio.Reader
	infos []StreamInfo

	// lookahead for round grouping
	pending      *codec.Packet
	pendingRound int64
	havePending  bool
	round        int64
	eof          bool

	// sparse round frames: sparseIn holds the last decoded round while it
	// is live (undelivered, or being drained packet-by-packet through Next).
	sparseIn   codec.Round
	sparseRnd  int64
	sparseLive bool
	sparsePos  int // Next()'s drain cursor into sparseIn

	// NextRoundSparse scratch for sessions on the per-stream wire format.
	sparseOut    codec.Round
	denseScratch []*codec.Packet

	// frame is the body buffer every frame is read into: both decoders copy
	// what they keep out of it, so a body is dead once next has parsed it.
	frame []byte

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

// next reads one message from the wire. Frames failing their CRC are
// dropped (counted in CorruptDropped) and reading continues: the length
// field kept the reader frame-aligned, so one corrupt body must not kill
// the session. isRound reports a sparse round frame: the round now lives in
// c.sparseIn (sparseLive set) and the returned packet is nil.
func (c *Client) next() (p *codec.Packet, round int64, isRound bool, err error) {
	for {
		rnd, id, body, err := readFrame(c.br, &c.frame)
		switch {
		case err == nil:
		case errors.Is(err, ErrFrameCRC):
			c.crcDropped++
			continue
		case errors.Is(err, errGoodbye):
			c.goodbye = true
			return nil, 0, false, io.EOF
		case err == io.EOF, errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, net.ErrClosed):
			return nil, 0, false, io.EOF
		default:
			return nil, 0, false, err
		}
		if id == sparseRoundStream {
			if err := decodeSparseRoundBody(body, len(c.infos), &c.sparseIn); err != nil {
				return nil, 0, false, err
			}
			for k, sid := range c.sparseIn.IDs {
				c.sparseIn.Pkts[k].Codec = c.infos[sid].Codec
			}
			c.sparseRnd, c.sparseLive, c.sparsePos = int64(rnd), true, 0
			return nil, int64(rnd), true, nil
		}
		p, used, err := container.UnmarshalPacket(body)
		if err != nil {
			return nil, 0, false, err
		}
		if used != len(body) {
			return nil, 0, false, fmt.Errorf("stream: message has trailing bytes")
		}
		if int(id) >= len(c.infos) {
			return nil, 0, false, fmt.Errorf("stream: message for unknown stream %d", id)
		}
		p.StreamID = int(id)
		p.Codec = c.infos[id].Codec
		return p, int64(rnd), false, nil
	}
}

// Next returns the next packet in arrival order along with its round index.
// It returns io.EOF when the server is done. Sparse round frames demux
// transparently: their packets drain one per call in ascending stream
// order, so round grouping downstream behaves exactly as on the per-stream
// wire format.
func (c *Client) Next() (*codec.Packet, int64, error) {
	if c.havePending {
		c.havePending = false
		return c.pending, c.pendingRound, nil
	}
	for {
		if c.sparseLive {
			if c.sparsePos < c.sparseIn.Len() {
				p := c.sparseIn.Pkts[c.sparsePos]
				c.sparsePos++
				return p, c.sparseRnd, nil
			}
			c.sparseLive = false // empty or exhausted round
		}
		p, round, isRound, err := c.next()
		if err != nil {
			return nil, 0, err
		}
		if isRound {
			continue // drain it above
		}
		return p, round, nil
	}
}

// NextRoundSparse gathers one full round as a sparse codec.Round holding
// only the active streams. On a SparseRounds session this is O(active) —
// one frame decode, no per-stream scan — and empty rounds are preserved;
// on the per-stream wire format it gathers exactly like NextRound and
// compacts. The returned round is valid until the next call.
func (c *Client) NextRoundSparse() (*codec.Round, error) {
	// Fast path: a sparse round frame maps to one call wholesale.
	if !c.havePending && !c.sparseLive {
		if c.eof {
			return nil, io.EOF
		}
		p, round, isRound, err := c.next()
		if err == io.EOF {
			c.eof = true
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		if isRound {
			c.sparseLive = false
			return &c.sparseIn, nil
		}
		// Per-stream wire format: stash and gather below.
		c.pending, c.pendingRound, c.havePending = p, round, true
	}
	// Compatibility path: gather through the packet-wise demux (which also
	// drains a partially-consumed sparse round) and compact.
	if cap(c.denseScratch) < len(c.infos) {
		c.denseScratch = make([]*codec.Packet, len(c.infos))
	}
	dense := c.denseScratch[:len(c.infos)]
	for i := range dense {
		dense[i] = nil
	}
	got := 0
	for {
		if c.eof {
			if got > 0 {
				break
			}
			return nil, io.EOF
		}
		p, r, err := c.Next()
		if err == io.EOF {
			c.eof = true
			continue
		}
		if err != nil {
			return nil, err
		}
		if got == 0 {
			c.round = r
		} else if r != c.round {
			c.pending, c.pendingRound, c.havePending = p, r, true
			break
		}
		if dense[p.StreamID] != nil {
			return nil, fmt.Errorf("stream: duplicate packet for stream %d in round %d", p.StreamID, r)
		}
		dense[p.StreamID] = p
		got++
	}
	c.sparseOut.FromDense(dense)
	return &c.sparseOut, nil
}

// NextRound gathers one full round: a slice indexed by stream ID with nil
// entries for streams that sent nothing this round. It returns io.EOF once
// the stream ends and all buffered rounds are drained.
func (c *Client) NextRound() ([]*codec.Packet, error) {
	round := make([]*codec.Packet, len(c.infos))
	got := 0
	for {
		if c.eof {
			if got > 0 {
				return round, nil
			}
			return nil, io.EOF
		}
		p, r, err := c.Next()
		if err == io.EOF {
			c.eof = true
			continue
		}
		if err != nil {
			return nil, err
		}
		if got == 0 {
			c.round = r
		} else if r != c.round {
			// Start of the next round: stash and return the current one.
			c.pending, c.pendingRound, c.havePending = p, r, true
			return round, nil
		}
		if round[p.StreamID] != nil {
			return nil, fmt.Errorf("stream: duplicate packet for stream %d in round %d", p.StreamID, r)
		}
		round[p.StreamID] = p
		got++
	}
}
