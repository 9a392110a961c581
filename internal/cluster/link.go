package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/container"
	"packetgame/internal/knapsack"
	"packetgame/internal/overload"
	"packetgame/internal/pipeline"
)

// This file is the cluster's I/O shell: the only non-test code that dials,
// accepts, wraps a connection in buffers, speaks the preamble, arms a read
// deadline or a timer, reads the clock, or reads bytes off a connection. What
// happens on the wire when a peer connects, whose memory a received frame
// lands in, and how a core — the coordinator's (core.go, failover.go) or a
// worker's (session.go) — meets the network, the clock, the sources and the
// journal file is answered here, once for both.

// clock is the package's one wall-clock read: every step's now comes from it.
func clock() time.Time { return time.Now() }

// dialTimeout bounds the connect of every dial a core asks for.
const dialTimeout = 5 * time.Second

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
		l.conn.SetReadDeadline(clock().Add(wait))
		defer l.conn.SetReadDeadline(time.Time{})
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

// dialLink opens a connection to addr, within timeout when > 0.
func dialLink(addr string, timeout time.Duration) (*link, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return newLink(conn), nil
}

// exchange is the client half of every opening — worker join, standby
// follow, worker re-join: preamble, a helloType frame carrying hello, then
// the peer's first frame, awaited for wait, or for as long as the peer takes
// when that is 0.
func (l *link) exchange(helloType uint8, hello []byte, wait time.Duration) (uint8, []byte, error) {
	err := writeHandshake(l.bw)
	if err == nil {
		err = l.send(helloType, hello)
	}
	if err != nil {
		return 0, nil, err
	}
	typ, body, err := l.recv(wait, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: awaiting the reply to hello %d: %w", helloType, err)
	}
	return typ, body, nil
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

// peer is the shell's handle on one connection: its link, and spare, where
// the engine hands back a round frame body once through with it, for the
// reader to read the next round into — two slots, for a coordinator that
// sends rounds ahead; a body that finds both taken is dropped.
type peer struct {
	*link
	spare   chan []byte
	joining bool // a join hello the core has neither welcomed nor dropped
}

// shell runs one core. Each connection has one reader, which hands its frames
// and then its death to the loop over one unbuffered inbox; the loop — the
// goroutine that calls await: a coordinator's, or a worker's engine — owns
// the core, the only timer, the round source, the journal file and the hooks,
// steps the core with every event and the time it read for it, and carries
// out each step's effects in order.
type shell struct {
	step  func(now time.Time, ev event, out []effect) []effect
	effs  []effect
	inbox chan event
	stop  chan struct{} // closed at teardown: frees accept and readers
	peers map[connID]*peer
	last  connID
	timer *time.Timer
	fired bool                       // the timer went off; its event waits behind what arrived before it
	pull  bool                       // the core asked for a round
	src   pipeline.SparseRoundSource // what a pull pulls
	err   error                      // what the run ended with (effDone)
	once  sync.Once

	// A coordinator's. hellos counts identified connections not yet handed
	// to the core, joins the joins not yet welcomed or dropped; both are
	// counted before they are queued on accepted.
	ln            net.Listener
	accepted      chan *pending
	hellos, joins atomic.Int32
	jr            *journal // nil without JournalPath
	hooks         *CoordConfig

	// A worker's: the heartbeat each of its links gets, the round body the
	// engine holds and its peer, and the installed round.
	beat   func(*peer)
	lent   []byte
	lender *peer
	round  atomic.Int64
}

func (s *shell) init(step func(time.Time, event, []effect) []effect, src pipeline.SparseRoundSource) {
	s.step, s.src = step, src
	s.inbox, s.stop, s.peers = make(chan event), make(chan struct{}), make(map[connID]*peer)
	s.timer = time.NewTimer(time.Hour)
	s.timer.Stop()
}

// await steps call, then every event that follows, until the core answers
// with an effect of kind want.
func (s *shell) await(call event, want effKind) effect {
	ans, ok := s.carry(call, want)
	for !ok {
		ev, _ := s.next(true)
		ans, ok = s.carry(ev, want)
	}
	return ans
}

// carry steps ev at the time it reads and carries out the effects in order,
// stepping a dial's outcome at once; ok reports an answer of kind want. A
// journal write that fails ends the run with its error.
func (s *shell) carry(ev event, want effKind) (ans effect, ok bool) {
	for more := true; more; {
		more = false
		now := clock()
		s.effs = s.step(now, ev, s.effs)
		for _, e := range s.effs {
			if err := s.do(now, e); err != nil {
				return effect{kind: effDone, err: err}, true
			}
			if e.kind == effDial {
				ev, more = s.dial(now, e), true
			}
			if e.kind == want {
				ans, ok = e, true
			}
		}
	}
	return ans, ok
}

// do carries out one effect the core returned at now.
func (s *shell) do(now time.Time, e effect) error {
	p := s.peers[e.conn]
	switch e.kind {
	case effSend:
		// A failed send kills the link, and its reader reports it.
		if p != nil && p.send(e.typ, e.body) == nil && e.typ == fSnapshotOffer {
			go p.beat(s.hooks.Heartbeat, func() []byte { return nil })
		}
		if p != nil && e.typ == fWelcome {
			s.admitted(p)
		}
	case effClose:
		if p != nil {
			s.admitted(p)
			p.close()
			delete(s.peers, e.conn)
		}
	case effPull:
		s.pull = true
	case effTimer:
		s.timer.Stop() // a tick it missed only wakes the core for nothing
		s.fired = false
		if !e.at.IsZero() {
			s.timer.Reset(e.at.Sub(now))
		}
	case effJournal:
		return s.jr.append(e.typ, e.body)
	case effCompact:
		return s.jr.compact(e.body)
	case effOnRound:
		s.hooks.OnRound(e.round, e.sel)
	case effOnRoundEnd:
		s.hooks.OnRoundEnd(e.round)
	case effOnMembership:
		s.hooks.OnMembership(e.round, e.joined, e.died)
	case effRound:
		if e.rnd != nil {
			s.lent, s.lender = e.body, p
			s.round.Store(e.round)
		}
	case effDone:
		s.err = e.err
	}
	return nil
}

// next is the next event: whatever is waiting first; then, with nothing
// waiting, a round the core asked for once every hello counted in by then has
// reached it (so a join a hook waited for is admitted at that round's
// boundary), or the timer that went off; else — when block — whatever comes
// first.
func (s *shell) next(block bool) (event, bool) {
	for {
		select {
		case p := <-s.accepted:
			return s.hello(p), true
		case ev := <-s.inbox:
			return ev, true
		default:
		}
		switch {
		case !block:
			return event{}, false
		case s.pull && s.hellos.Load() == 0:
			s.pull = false
			rnd, err := s.src.NextRoundSparse()
			return event{kind: evRound, rnd: rnd, err: err}, true
		case s.fired:
			s.fired = false
			return event{kind: evTimer}, true
		}
		timer := s.timer.C
		if s.pull {
			timer = nil
		}
		select {
		case p := <-s.accepted:
			return s.hello(p), true
		case ev := <-s.inbox:
			return ev, true
		case <-timer:
			s.fired = true
		}
	}
}

// hello hands the core an identified connection, a peer from now on.
func (s *shell) hello(p *pending) event {
	s.hellos.Add(-1)
	id := s.attach(p.link)
	s.peers[id].joining = p.typ == fJoin
	return event{kind: evHello, conn: id, typ: p.typ, body: p.hello}
}

// admitted takes p's join, if it still awaits admission, off PendingJoins.
func (s *shell) admitted(p *peer) {
	if p.joining {
		p.joining = false
		s.joins.Add(-1)
	}
}

// dial opens the connection e asks for — e.typ's hello carrying e.body, the
// first frame back awaited for e.at − now once connected — as a peer for the
// core to keep or close.
func (s *shell) dial(now time.Time, e effect) event {
	ev := event{kind: evDialed}
	l, err := dialLink(e.addr, dialTimeout)
	if err == nil {
		if ev.typ, ev.body, err = l.exchange(e.typ, e.body, e.at.Sub(now)); err != nil {
			l.close()
		} else {
			ev.conn = s.attach(l)
		}
	}
	ev.err = err
	return ev
}

// attach makes l a peer, with its own reader (and a worker's heartbeat), and
// returns its id.
func (s *shell) attach(l *link) connID {
	s.last++
	p := &peer{link: l, spare: make(chan []byte, 2)}
	s.peers[s.last] = p
	go s.read(s.last, p)
	if s.beat != nil {
		s.beat(p)
	}
	return s.last
}

// read is connection id's one reader: its frames, then the error that ends
// the link (closed first, so nothing more is sent on it), go to the loop in
// order. A round frame lands in a body from spare, else a new one, and is the
// core's from then on. Every other body is through once the core has stepped
// it, and the inbox is unbuffered — the loop takes a frame only after
// stepping the one before — so two buffers can take turns.
func (s *shell) read(id connID, p *peer) {
	var round []byte
	var small [2][]byte
	turn := 0
	place := func(typ uint8) *[]byte {
		if typ != fRound {
			turn ^= 1
			return &small[turn]
		}
		if round == nil {
			select {
			case round = <-p.spare:
			default:
			}
		}
		return &round
	}
	for {
		ev := event{kind: evFrame, conn: id}
		if ev.typ, ev.body, ev.err = p.recv(0, place); ev.err != nil {
			ev.kind = evClosed
			p.close()
		} else if ev.typ == fRound {
			round = nil
		}
		select {
		case s.inbox <- ev:
		case <-s.stop:
			return
		}
		if ev.err != nil {
			return
		}
	}
}

// teardown releases everything the shell holds. The journal is fsynced and
// closed BEFORE the listener is released: a standby elected after this
// coordinator goes away must never race a half-flushed log.
func (s *shell) teardown() {
	s.once.Do(func() {
		close(s.stop)
		if s.jr != nil {
			s.jr.Close()
		}
		if s.ln != nil {
			s.ln.Close()
		}
		s.timer.Stop()
		for _, p := range s.peers {
			p.close()
		}
		for len(s.accepted) > 0 {
			(<-s.accepted).close()
		}
	})
}

// route counts an identified connection in before serveLinks queues it, so
// a hook that waits for PendingJoins, then lets the core pull a round, has
// the join admitted at that round's boundary.
func (c *Coordinator) route(typ uint8) chan<- *pending {
	if typ != fJoin && typ != fStandbyJoin && typ != fRejoin {
		return nil
	}
	c.hellos.Add(1)
	if typ == fJoin {
		c.joins.Add(1)
	}
	return c.accepted
}

// The worker's shell: clusterSource is its engine's source and its gate's
// planner, remoteSelector the gate's selector. The engine's goroutine is the
// loop: a pull or a Select awaits the core's answer to the call.
type (
	clusterSource  Worker
	remoteSelector Worker
)

// NextRoundSparse implements pipeline.SparseRoundSource.
func (s *clusterSource) NextRoundSparse() (*codec.Round, error) {
	w := (*Worker)(s)
	// The release point. The engine (build) pulls only once the previous
	// round was acked, fed back, and its roundWork recycled with its packet
	// pointers cleared; the gate reads a round in place and keeps no packet;
	// decode.Frame holds values, no packet. So here nothing can reach a packet
	// of the round pulled last, and the frame body they alias goes back to the
	// reader — before the report is sent, so at MaxInFlight 1 the next round
	// frame lands in it: one round body per worker.
	if w.lent != nil {
		select {
		case w.lender.spare <- w.lent:
		default:
		}
		w.lent, w.lender = nil, nil
	}
	// What arrived while the round was in the engine is stepped first, with
	// the gate quiescent: a session's death is seen before a report goes out.
	for ev, ok := w.next(false); ok; ev, ok = w.next(false) {
		w.carry(ev, effRound)
	}
	e := w.await(event{kind: evPull}, effRound)
	return e.rnd, e.err
}

// NextRound implements pipeline.RoundSource; the engine pulls sparse.
func (s *clusterSource) NextRound() ([]*codec.Packet, error) {
	return nil, errors.New("cluster: round frames are sparse; use NextRoundSparse")
}

// Truth implements pipeline.RoundSource: ground truth relayed with the
// round (accuracy accounting only — redundancy feedback never reads it, so
// decision equality does not depend on the relay).
func (s *clusterSource) Truth(i int) (codec.Scene, bool) {
	r := &s.core.rec
	if k := r.rnd.Find(int32(i)); k >= 0 && r.hasT[k] {
		return r.truth[k], true
	}
	return codec.Scene{}, false
}

// Plan implements overload.Planner: the coordinator's reconciler already
// planned this round's effective budget and degradation mode; the worker
// only obeys. Orphan rounds carry the degraded local plan in the same
// fields, so nothing downstream distinguishes the two.
func (s *clusterSource) Plan() (float64, overload.Mode) { return s.core.rec.bEff, s.core.rec.mode }

// Select implements knapsack.Selector through the core (wcore.choose).
func (r *remoteSelector) Select(dst []int, cands []knapsack.Candidate, budget float64) []int {
	return (*Worker)(r).await(event{kind: evSelect, sel: dst, cands: cands, budget: budget}, effSelect).sel
}

// heartbeat keeps the coordinator's lease alive through long decode stalls,
// reporting the installed round; its period carries per-worker jitter, so a
// fleet admitted or re-homed together does not beacon in phase.
func (w *Worker) heartbeat(p *peer) {
	every := w.core.cfg.HeartbeatEvery
	orDefault(&every, 500*time.Millisecond)
	go p.beat(heartbeatJitter(every, w.core.id), func() []byte {
		return encodeReport(w.round.Load(), 0, AccDeltas{})
	})
}

// run drives the engine to its end, lets the core close the run out in one
// step — the final accounting after a goodbye, or nothing if the run ended
// before — and tears the shell down.
func (w *Worker) run() {
	defer w.running.Done()
	rep, err := w.eng.Run(0)
	w.carry(event{kind: evEnded, err: err, fin: &WorkerFinal{Rounds: rep.Rounds, Decoded: rep.Decoded, DecodeFailed: rep.DecodeFailed}}, effDone)
	w.teardown()
}
