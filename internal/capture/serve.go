package capture

import (
	"bufio"
	"net"
	"sync"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/stream"
)

// closeGrace is how long Close lets sessions finish their round and send
// the goodbye before it force-closes them (a client that stopped reading);
// stream.Server.Close allows the same.
const closeGrace = 5 * time.Second

// ReplayServer serves a directory of captures as live PGSP sessions: every
// accepted connection gets one session muxing all captures, each replayed
// by its own worker goroutine that preserves that capture's inter-round
// timing (scaled by Speedup). Stream slots are concatenated in capture
// order; round indices are renumbered onto one monotone session counter, so
// concurrently replaying captures interleave as distinct rounds (each round
// carries packets from exactly one capture, the other slots idle) — the
// same shape a bursty multi-source ingest presents to the gate. Each round
// goes out as one round frame the moment it is due, so a client closes it
// without waiting for the next.
type ReplayServer struct {
	captures []*Capture
	infos    []stream.StreamInfo
	base     []int // capture i's first stream slot
	opts     ReplayOptions

	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool
}

// ServeReplay starts serving the captures on ln. Close stops it.
func ServeReplay(ln net.Listener, captures []*Capture, opts ReplayOptions) (*ReplayServer, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &ReplayServer{captures: captures, opts: opts, ln: ln, conns: map[net.Conn]struct{}{}}
	for _, c := range captures {
		infos, err := c.Meta.Infos()
		if err != nil {
			return nil, err
		}
		s.base = append(s.base, len(s.infos))
		s.infos = append(s.infos, infos...)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address.
func (s *ReplayServer) Addr() net.Addr { return s.ln.Addr() }

// Streams returns the muxed session's stream count.
func (s *ReplayServer) Streams() int { return len(s.infos) }

// Close stops accepting and lets every active replay stop at its next round
// boundary and send the goodbye; sessions still open after closeGrace (a
// client that stopped reading) are force-closed.
func (s *ReplayServer) Close() error {
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
	err := s.ln.Close()
	force := time.AfterFunc(closeGrace, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for c := range s.conns {
			c.Close()
		}
	})
	s.wg.Wait()
	force.Stop()
	return err
}

func (s *ReplayServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.done {
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

// mux serializes round frames from the per-capture workers onto one
// connection and hands out global round numbers.
type mux struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	width int // the session's stream count
	round uint64
	rnd   codec.Round
	enc   stream.RoundEncoder
	err   error
}

// emitRound writes one replayed round (all packets of one capture's round,
// at stream slots base+i) as a fresh global round in one round frame.
func (m *mux) emitRound(base int, r *RecordedRound) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	m.rnd.Reset(m.width)
	for i, p := range r.Pkts {
		if p != nil {
			m.rnd.Append(int32(base+i), p)
		}
	}
	_, m.err = m.bw.Write(m.enc.Encode(m.round, &m.rnd))
	m.round++
	if m.err == nil {
		m.err = m.bw.Flush()
	}
	return m.err
}

func (s *ReplayServer) serveConn(conn net.Conn) error {
	bw := bufio.NewWriterSize(conn, 64<<10)
	if err := stream.WriteHandshake(bw, s.infos); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	m := &mux{bw: bw, width: len(s.infos)}
	var workers sync.WaitGroup
	for ci, c := range s.captures {
		rounds, due, err := schedule(c, s.opts)
		if err != nil {
			return err
		}
		workers.Add(1)
		go func(base int, rounds []RecordedRound, due []time.Duration) {
			defer workers.Done()
			clock := s.opts.Clock
			start := clock.Now()
			for i := range rounds {
				if s.stopped() {
					return
				}
				if d := start.Add(due[i]).Sub(clock.Now()); d > 0 {
					clock.Sleep(d)
				}
				if err := m.emitRound(base, &rounds[i]); err != nil {
					return
				}
			}
		}(s.base[ci], rounds, due)
	}
	workers.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	if _, err := bw.Write(stream.AppendGoodbye(nil, m.round)); err != nil {
		return err
	}
	return bw.Flush()
}

func (s *ReplayServer) stopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}
