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

	"packetgame/internal/codec"
	"packetgame/internal/container"
	"packetgame/internal/knapsack"
	"packetgame/internal/overload"
)

// This file is the cluster's I/O shell: the only non-test code that dials,
// accepts, wraps a connection in buffers, speaks the preamble, arms a read
// deadline or a timer, or reads bytes off a connection. What happens on the
// wire when a peer connects, whose memory a received frame lands in, and how
// the coordinator's protocol (core.go) and a worker's (session.go) meet the
// network, the clock, the sources and the journal file is answered here.

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

// peer is the shell's handle on one connection: its link, and spare, the
// way frame bodies come home — the reader takes its next body buffer from
// here (else starts a new one) and the loop hands one back once the core is
// through with it. Two slots: with rounds overlapping, a worker can have a
// candidates and a report body out at once.
type peer struct {
	*link
	spare chan []byte
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

// run carries out effs, then steps the core with every event that follows
// until it is done, and tears down. It returns the error the run ended with.
func (c *Coordinator) run(effs []effect) error {
	c.timer = time.NewTimer(time.Hour)
	c.timer.Stop()
	defer c.teardown()
	for {
		if done, err := c.apply(effs); done {
			return err
		}
		ev := c.next()
		effs = c.core.step(time.Now(), ev, effs)
		c.queued.Store(int32(c.core.queuedJoins()))
		if p := c.peers[ev.conn]; ev.kind == evFrame && p != nil {
			select {
			case p.spare <- ev.body:
			default:
			}
		}
	}
}

// next is the next event: connections and frames as they came; a round the
// core asked for once every hello counted in by then has reached it (so a
// join a hook waited for is admitted at that round's boundary); the timer
// only behind whatever arrived before it went off.
func (c *Coordinator) next() event {
	for {
		if idle := len(c.accepted) == 0 && len(c.inbox) == 0; idle && c.pull && c.hellos.Load() == 0 {
			c.pull = false
			rnd, err := c.src.NextRoundSparse()
			return event{kind: evRound, rnd: rnd, err: err}
		} else if idle && c.fired {
			c.fired = false
			return event{kind: evTimer}
		}
		timer := c.timer.C
		if c.pull || c.fired {
			timer = nil
		}
		select {
		case p := <-c.accepted:
			c.hellos.Add(-1)
			if p.typ == fJoin {
				c.joins.Add(-1) // the core counts it from here on (queued)
			}
			c.last++
			pr := &peer{link: p.link, spare: make(chan []byte, 2)}
			c.peers[c.last] = pr
			go c.read(c.last, pr)
			return event{kind: evHello, conn: c.last, typ: p.typ, body: p.hello}
		case ev := <-c.inbox:
			return ev
		case <-timer:
			c.fired = true
		}
	}
}

// read is connection id's one reader: its frames, then the error that ends
// the link, go to the loop in order.
func (c *Coordinator) read(id connID, p *peer) {
	var buf []byte
	place := func(uint8) *[]byte {
		if buf == nil {
			select {
			case buf = <-p.spare:
			default:
			}
		}
		return &buf
	}
	for {
		ev := event{kind: evFrame, conn: id}
		if ev.typ, ev.body, ev.err = p.recv(0, place); ev.err != nil {
			ev.kind = evClosed
		}
		buf = nil // the body is on its way out
		select {
		case c.inbox <- ev:
		case <-c.stop:
			return
		}
		if ev.err != nil {
			return
		}
	}
}

// apply carries out effects in order; done reports the run's end.
func (c *Coordinator) apply(effs []effect) (done bool, err error) {
	for _, e := range effs {
		p := c.peers[e.conn]
		switch e.kind {
		case effSend:
			// A failed send kills the link, and its reader reports it.
			if p != nil && p.send(e.typ, e.body) == nil && e.typ == fSnapshotOffer {
				go p.beat(c.core.cfg.Heartbeat, func() []byte { return nil })
			}
		case effClose:
			if p != nil {
				p.close()
				delete(c.peers, e.conn)
			}
		case effPull:
			c.pull = true
		case effTimer:
			c.timer.Stop() // a tick it missed only wakes the core for nothing
			c.fired = false
			if !e.at.IsZero() {
				c.timer.Reset(time.Until(e.at))
			}
		case effJournal:
			err = c.jr.append(e.typ, e.body)
		case effCompact:
			err = c.jr.compact(e.body)
		case effOnRound:
			c.core.cfg.OnRound(e.round, e.sel)
		case effOnRoundEnd:
			c.core.cfg.OnRoundEnd(e.round)
		case effOnMembership:
			c.core.cfg.OnMembership(e.round, e.joined, e.died)
		case effDone:
			return true, e.err
		}
		if err != nil {
			return true, err
		}
	}
	return false, nil
}

// teardown releases everything the coordinator holds. The journal is fsynced and
// closed BEFORE the listener is released: a standby elected after this
// coordinator goes away must never race a half-flushed log.
func (c *Coordinator) teardown() {
	c.once.Do(func() {
		close(c.stop)
		if c.jr != nil {
			c.jr.Close()
		}
		c.ln.Close()
		if c.timer != nil {
			c.timer.Stop()
		}
		for _, p := range c.peers {
			p.close()
		}
		for len(c.accepted) > 0 {
			(<-c.accepted).close()
		}
	})
}

// The worker's shell: clusterSource is its engine's source and its gate's
// planner, remoteSelector the gate's selector. The engine's goroutine is the
// event loop: a pull or a Select steps the core with the call, then with
// every event that follows, until the core answers it.
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
		case w.sess.spare <- w.lent:
		default:
		}
		w.lent = nil
	}
	// What arrived while the round was in the engine is stepped first, with
	// the gate quiescent: a session's death is seen before a report goes out.
	for ev, ok := w.next(false); ok; ev, ok = w.next(false) {
		w.step(ev, effRound)
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

// await steps the engine's call, then every event that follows, until the
// core answers the call with an effect of kind want.
func (w *Worker) await(call event, want effKind) effect {
	ans, ok := w.step(call, want)
	for !ok {
		ev, _ := w.next(true)
		ans, ok = w.step(ev, want)
	}
	return ans
}

// step hands the core ev and carries out its effects, stepping a dial's or an
// orphan pull's outcome at once; ok reports an answer of kind want.
func (w *Worker) step(ev event, want effKind) (ans effect, ok bool) {
	for more := true; more; {
		more = false
		w.effs = w.core.step(time.Now(), ev, w.effs)
		// The core addresses only its session, and that is the latest link —
		// or the core has closed the latest and sends nothing more.
		for _, e := range w.effs {
			switch e.kind {
			case effSend:
				w.sess.send(e.typ, e.body) // a failed send kills the link; its reader reports it
			case effClose:
				w.sess.close()
			case effTimer:
				w.timer.Reset(time.Until(e.at))
			case effPull:
				rnd, err := w.orphan.NextRoundSparse()
				ev, more = event{kind: evRound, rnd: rnd, err: err}, true
			case effDial:
				ev, more = w.dial(e.addr, e.hello), true
			case effRound:
				if e.rnd != nil {
					w.lent = e.body
					w.clock.Store(e.round)
				}
			case effDone:
				w.err = e.err
			}
			if e.kind == want {
				ans, ok = e, true
			}
		}
	}
	return ans, ok
}

// next is the next event: a reader's, or — blocking — the timer's.
func (w *Worker) next(block bool) (ev event, ok bool) {
	if block {
		select {
		case ev = <-w.inbox:
		case <-w.timer.C:
			return event{kind: evTimer}, true
		}
	} else {
		select {
		case ev = <-w.inbox:
		default:
			return ev, false
		}
	}
	if ev.kind == evClosed {
		w.readers--
	}
	return ev, true
}

// dial re-joins at addr; an answered connection becomes the worker's latest,
// its reader and heartbeat running, for the core to keep or close.
func (w *Worker) dial(addr string, hello *RejoinInfo) event {
	var tk TakeoverInfo
	l, err := dialLink(addr, rejoinDial, fRejoin, hello, fTakeover, &tk, rejoinReplyWait)
	if err != nil {
		return event{kind: evDialed, err: err}
	}
	return event{kind: evDialed, conn: w.attach(l), tk: &tk}
}

// attach makes l the worker's latest connection, with its own reader and
// heartbeat, and returns its id. The heartbeat keeps the coordinator's lease
// alive through long decode stalls; its period carries per-worker jitter, so
// a fleet admitted or re-homed together does not beacon in phase.
func (w *Worker) attach(l *link) connID {
	w.conn++
	w.sess = &peer{link: l, spare: make(chan []byte, 2)}
	w.readers++
	go w.read(w.conn, w.sess)
	every := w.core.cfg.HeartbeatEvery
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	go w.sess.beat(heartbeatJitter(every, w.core.id), func() []byte {
		return encodeReport(w.clock.Load(), 0, AccDeltas{})
	})
	return w.conn
}

// read is connection id's one reader: its frames, then the error that ends
// the link (closed first, so nothing more is sent on it), go to the loop in
// order. A round frame lands in the body the loop last handed back through
// spare, else in a new one, and is the core's from then on. Every other body
// is through once the core has stepped it, and the inbox is unbuffered: the
// loop takes a frame only after stepping the one before, so two buffers
// taking turns are never written while the core reads one.
func (w *Worker) read(id connID, p *peer) {
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
		w.inbox <- ev
		if ev.err != nil {
			return
		}
	}
}

// run drives the engine to its end, lets the core close the run out — the
// final accounting after a goodbye — and tears the shell down: the timer
// stopped, the session closed, and every reader's last event taken.
func (w *Worker) run() {
	defer w.running.Done()
	w.timer = time.NewTimer(time.Hour)
	w.timer.Stop()
	rep, err := w.eng.Run(0)
	w.step(event{kind: evEnded, err: err, fin: &WorkerFinal{Rounds: rep.Rounds, Decoded: rep.Decoded, DecodeFailed: rep.DecodeFailed}}, effDone)
	w.timer.Stop()
	w.sess.close()
	for w.readers > 0 {
		w.next(true)
	}
}
