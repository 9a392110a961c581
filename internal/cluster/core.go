package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/overload"
)

// This file and failover.go are the coordinator's protocol. Neither starts a
// goroutine, touches a channel, a socket or a file, or reads a clock: the
// shell (link.go) hands each event to step with the time it was seen, and
// carries out the effects step returns, in order, before the next event. So
// every decision is a function of the event sequence and its times, and a
// test can drive the protocol on a virtual clock in any arrival order.

type connID uint32 // one connection, the shell's to resolve; 0 is none

type evKind uint8

const (
	evFrame  evKind = iota // frame typ, body arrived on conn
	evClosed               // conn's link died with err: nothing more arrives on it
	evHello                // conn identified itself with hello frame typ, body
	evRound                // the round effPull asked for: rnd, or err
	evTimer                // the time last armed has come
	evStart                // the shell's first step: the core opens the reign it was built for
	evDialed               // the dial effDial asked for: conn answered with frame typ, body, or it failed with err

	// A worker's (session.go).
	evPull   // the engine pulls its next round
	evSelect // the engine asks for a selection from cands under budget, appended to sel
	evEnded  // the engine stopped with err; fin holds its run counters
)

// event is one thing that happened. A frame body is only the step's.
type event struct {
	kind   evKind
	conn   connID
	typ    uint8
	body   []byte
	rnd    *codec.Round
	err    error
	sel    []int
	cands  []knapsack.Candidate
	budget float64
	fin    *WorkerFinal
}

type effKind uint8

const (
	effSend         effKind = iota // send frame typ, body on conn
	effClose                       // close conn
	effPull                        // pull the next round from the source
	effTimer                       // arm the timer for at (zero: disarm)
	effJournal                     // append record typ, body to the journal file
	effCompact                     // rewrite the journal file as snapshot body
	effOnRound                     // CoordConfig.OnRound(round, sel)
	effOnRoundEnd                  // CoordConfig.OnRoundEnd(round)
	effOnMembership                // CoordConfig.OnMembership(round, joined, died)
	effDone                        // the run is over, with err
	effDial                        // dial addr, send hello frame typ carrying body, await the reply for at − now

	// A worker's (session.go).
	effRound  // hand the engine rnd (round round, aliasing frame body body of conn), or err
	effSelect // hand the engine the selection sel
)

// effect is one thing for the shell to do; its slices live until the next step.
type effect struct {
	kind         effKind
	conn         connID
	typ          uint8
	body         []byte
	at           time.Time
	round        int64
	sel          []int
	joined, died []int
	err          error
	rnd          *codec.Round
	addr         string
}

func send(typ uint8, to connID, body []byte) effect {
	return effect{kind: effSend, typ: typ, conn: to, body: body}
}

var errLease = errors.New("lease expired")

// member is one worker of the ring (conn 0: a journaled member that never
// re-homed). Its link's death (closed) kills it only once a frame of it is
// awaited, so a death lands on the same protocol step however it was timed.
type member struct {
	id       int
	conn     connID
	lastSeen time.Time // its lease runs from its last frame
	closed   error
	dead     bool
	want     uint8   // the frame type demanded of it next (besides reports)
	prev     []int32 // the stream ids of the last round frame it was sent
}

type standbyRef struct { // an attached standby, and where workers re-home to it
	conn connID
	addr string
}

// coord is the coordinator's protocol state machine.
type coord struct {
	cfg   CoordConfig
	truth func(stream int) (codec.Scene, bool) // ground truth of the pulled round
	enter func()                               // the reign evStart opens: lead, follow, or a cold takeover
	now   time.Time
	out   []effect
	arena []byte // this step's hot frame bodies: out's sends alias it
	over  bool   // effDone went out

	members  map[int]*member
	conns    map[connID]*member
	pending  []event // identified connections (evHello) awaiting a consistent point
	standbys []standbyRef
	ring     *Ring
	owners   []int
	nextID   int
	epoch    uint64
	seq      uint64
	rc       *reconciler
	lats     []time.Duration // observed round latencies, for the report's p99
	greedy   knapsack.Greedy

	// rs is the replica image a standby keeps, fed the same records at the
	// same points; rep holds what only this coordinator saw — Deaths,
	// DeadReasons, Finals — and report() reads the rest off rs.
	rs        *replicaState
	journaled bool // records go to a journal file too
	since     int  // journal records since its last snapshot
	rep       Report
	primary   connID // a standby's link to the primary it follows (failover.go)
	elected   bool   // a standby that took over

	// What the coordinator waits for, and does once settle finds it ready;
	// deadline ends a quorum wait or a re-join window; armed is the shell's
	// timer; reply is what expect got (nil: the member died instead).
	ready           func() bool
	then            func()
	deadline, armed time.Time
	reply           []byte

	// The round loop entered at round first plays round round once skip
	// source rounds are discarded (a takeover resumes an identically seeded
	// source); rnd is the pulled round, fl the flight being gathered.
	first, round, skip int64
	rnd                *codec.Round
	rndErr             error
	fl                 *flight

	// inflight is the FIFO of granted-but-unobserved rounds, oldest first;
	// retired flights park past its end for reuse. due is how many of the
	// oldest are waited on. liveList is the sorted live-worker list every
	// per-worker loop runs in, slot its inverse (-1: not live).
	inflight []flight
	due      int
	liveList []int
	slot     []int32

	// round scratch
	cands   []knapsack.Candidate // gathered candidates, in arrival order
	cost    []float64            // per-stream offered cost, valid for this round's candidates
	grants  [][]int              // per-live-position grant lists, global selection order
	candMsg candidatesMsg
	sel     []int
	scatter [][]roundPacket // per-live-position round packets, ascending by stream

	// The steady-state round's waits, bound once so a round allocates none.
	answeredFn, dueFn func() bool
	solveFn, retireFn func()
}

func orDefault[T int | time.Duration](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

func newCoord(cfg CoordConfig, truth func(int) (codec.Scene, bool)) *coord {
	orDefault(&cfg.MinWorkers, 1)
	orDefault(&cfg.MaxInFlight, 1)
	orDefault(&cfg.JoinTimeout, 30*time.Second)
	orDefault(&cfg.Lease, 10*time.Second)
	orDefault(&cfg.Heartbeat, cfg.Lease/4)
	orDefault(&cfg.RejoinWait, 15*time.Second)
	c := &coord{
		cfg: cfg, truth: truth,
		members: make(map[int]*member), conns: make(map[connID]*member),
		ring: &Ring{}, owners: make([]int, cfg.Streams), cost: make([]float64, cfg.Streams),
		rc:        newReconciler(cfg.SLO, cfg.Budget),
		rep:       Report{Finals: make(map[int]WorkerFinal), DeadReasons: make(map[int]string)},
		rs:        newReplicaState(),
		journaled: cfg.JournalPath != "",
	}
	c.rs.Streams, c.rs.Budget, c.rs.Window, c.rs.Task, c.rs.SLONs = cfg.Streams, cfg.Budget, cfg.Window, cfg.Task, int64(cfg.SLO)
	c.answeredFn, c.dueFn, c.solveFn, c.retireFn = c.answered, c.dueIn, c.solve, c.retire
	c.enter = c.lead
	return c
}

// lead opens a primary's reign: quorum, then rounds from 0.
func (c *coord) lead() {
	c.quorum(0, func(err error) {
		if err != nil {
			c.done(err)
			return
		}
		c.rounds(0, 0)
	})
}

// step hands the coordinator one event seen at now and returns what to do
// about it, in order, appended to out[:0].
func (c *coord) step(now time.Time, ev event, out []effect) []effect {
	c.begin(now, out)
	switch ev.kind {
	case evStart:
		c.enter()
	case evFrame:
		c.frame(ev.conn, ev.typ, ev.body)
	case evClosed:
		c.closed(ev.conn, ev.err)
	case evDialed: // only ever the answer to a standby's dial
		c.followed(ev)
	case evHello:
		c.pending = append(c.pending, ev)
	case evRound: // only ever the answer to effPull
		c.rnd, c.rndErr = ev.rnd, ev.err
		c.roundIn()
	case evTimer:
		c.armed = time.Time{}
	}
	return c.end()
}

func (c *coord) begin(now time.Time, out []effect) { c.now, c.out, c.arena = now, out[:0], c.arena[:0] }

func (c *coord) end() []effect {
	c.settle()
	out := c.out
	c.out = nil
	return out
}

func (c *coord) emit(e effect) {
	if !c.over {
		c.out = append(c.out, e)
	}
}

// emitArena sends the frame encoded into the arena from n on.
func (c *coord) emitArena(typ uint8, to connID, n int) { c.emit(send(typ, to, c.arena[n:])) }

func (c *coord) done(err error) { // the run is over; err nil: it completed
	c.emit(effect{kind: effDone, err: err})
	c.over = true
}

func (c *coord) hangUp(conn connID) { c.emit(effect{kind: effClose, conn: conn}) }

func (c *coord) wait(ready func() bool, then func()) { c.ready, c.then = ready, then }

// each runs f(0), …, f(n-1) one after another — each calls next when it is
// through, now or after a wait — and then then.
func each(n int, f func(i int, next func()), then func()) {
	var step func(i int)
	step = func(i int) {
		if i == n {
			then()
			return
		}
		f(i, func() { step(i + 1) })
	}
	step(0)
}

func (c *coord) expired() bool { return !c.deadline.IsZero() && !c.now.Before(c.deadline) }

// settle ends a step: awaited members whose link is gone or whose lease ran
// out die, what the coordinator waited for runs while ready, and the timer is
// armed for the earliest deadline left.
func (c *coord) settle() {
	for !c.over {
		var at time.Time // a deadline past already needs no wake-up: expired() sees it
		if c.deadline.After(c.now) {
			at = c.deadline
		}
		for _, m := range c.members {
			if m.dead || !c.awaited(m) {
				continue
			}
			if lease := m.lastSeen.Add(c.cfg.Lease); m.closed != nil || !c.now.Before(lease) {
				c.markDead(m, cmp.Or(m.closed, errLease))
			} else if at.IsZero() || lease.Before(at) {
				at = lease
			}
		}
		if c.ready == nil || !c.ready() {
			if !at.Equal(c.armed) {
				c.armed = at
				c.emit(effect{kind: effTimer, at: at})
			}
			return
		}
		then := c.then
		c.ready, c.then = nil, nil
		then()
	}
}

// awaited reports whether a frame of m is waited for: the one it is asked
// for, or its report of a flight due.
func (c *coord) awaited(m *member) bool {
	k := c.slotOf(m.id)
	for i := 0; i < c.due && k >= 0 && m.want == 0; i++ {
		if f := &c.inflight[i]; k < len(f.ids) && f.ids[k] == m.id && !f.reported[k] {
			return true
		}
	}
	return m.want != 0
}

// answered reports whether every frame asked for came (or its sender died).
func (c *coord) answered() bool {
	for _, m := range c.members {
		if m.want != 0 {
			return false
		}
	}
	return true
}

// frame routes one frame; any frame renews its sender's lease. The frame a
// member is asked for is taken, a report is filed under its flight whenever
// it arrives, anything else kills the sender; the followed primary's goes to
// the following phase, and anyone else's is dropped.
func (c *coord) frame(conn connID, typ uint8, body []byte) {
	m := c.conns[conn]
	if m == nil {
		if c.fromPrimary(conn) {
			c.primaryFrame(typ, body)
		}
		return
	}
	m.lastSeen = c.now
	switch {
	case typ == fHeartbeat, typ == fGoodbye:
	case typ == fReport && m.want != fReport:
		c.fold(m, body)
	case typ != m.want:
		c.markDead(m, fmt.Errorf("expected frame %d, got %d", m.want, typ))
	case c.fl != nil && typ == fCandidates:
		m.want = 0
		c.gather(m, body)
	case typ == fFinal:
		m.want = 0
		var fin WorkerFinal
		if gobDecode(body, &fin) == nil {
			c.rep.Finals[m.id] = fin
		}
	default:
		m.want, c.reply = 0, body
	}
}

// closed takes a link's death: a member's waits for settle, a standby's
// prunes it, a queued hello's drops it, the followed primary's ends its lease.
func (c *coord) closed(conn connID, err error) {
	if m := c.conns[conn]; m != nil {
		m.closed = err
		return
	}
	if c.fromPrimary(conn) { // settle elects now, and hangs up
		c.deadline = c.now
		return
	}
	c.hangUp(conn) // the shell lets the dead link go
	if i := slices.IndexFunc(c.standbys, func(sb standbyRef) bool { return sb.conn == conn }); i >= 0 {
		c.standbys = slices.Delete(c.standbys, i, i+1)
		c.broadcastStandbys()
	}
	if i := slices.IndexFunc(c.pending, func(p event) bool { return p.conn == conn }); i >= 0 {
		c.pending = slices.Delete(c.pending, i, i+1)
	}
}

func (c *coord) markDead(m *member, err error) {
	if !m.dead {
		m.dead, m.want = true, 0
		c.hangUp(m.conn)
		delete(c.conns, m.conn)
		c.rep.Deaths++
		c.rep.DeadReasons[m.id] = err.Error()
		c.rc.removeWorker(m.id)
	}
}

// install is the one place a worker connection comes alive, as ring member id.
func (c *coord) install(id int, conn connID) *member {
	m := &member{id: id, conn: conn, lastSeen: c.now}
	c.members[id], c.conns[conn] = m, m
	return m
}

// expect asks m alone for a frame of type typ and hands then its body once it
// comes, nil if m dies first.
func (c *coord) expect(m *member, typ uint8, then func(body []byte)) {
	if m.dead {
		then(nil)
		return
	}
	m.want, c.reply = typ, nil
	c.wait(c.answeredFn, func() {
		body := c.reply
		c.reply = nil
		then(body)
	})
}

// live returns the live worker IDs, sorted: per-worker loops run in this
// order so float accumulation and frame ordering are deterministic.
func (c *coord) live() []int {
	ids := make([]int, 0, len(c.members))
	for id, m := range c.members {
		if !m.dead {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

func (c *coord) anyDead() bool {
	for _, m := range c.members {
		if m.dead {
			return true
		}
	}
	return false
}

// refreshLive rebuilds the live list, its index and the per-position buffers
// — only at drained membership boundaries, so no flight reads an old list.
func (c *coord) refreshLive() {
	c.liveList = c.live()
	c.slot = c.slot[:0]
	for k, id := range c.liveList {
		for len(c.slot) <= id {
			c.slot = append(c.slot, -1)
		}
		c.slot[id] = int32(k)
	}
	for len(c.grants) < len(c.liveList) {
		c.grants = append(c.grants, nil)
		c.scatter = append(c.scatter, nil)
	}
}

func (c *coord) slotOf(id int) int {
	if id < 0 || id >= len(c.slot) {
		return -1
	}
	return int(c.slot[id])
}

// quorum serves queued connections until MinWorkers workers are live, then
// calls then — with an error once JoinTimeout passes. Nothing is in flight, so
// admissions need no state transfer and snapshots are trivially consistent.
func (c *coord) quorum(round int64, then func(error)) {
	c.serveUntil(c.cfg.JoinTimeout, func() bool { return len(c.live()) >= c.cfg.MinWorkers }, 0, func(p event, next func()) {
		c.serve(p, round, next)
	}, func() {
		if len(c.live()) < c.cfg.MinWorkers {
			then(fmt.Errorf("cluster: %d/%d workers joined within %v", len(c.live()), c.cfg.MinWorkers, c.cfg.JoinTimeout))
			return
		}
		then(nil)
	})
}

// serveUntil serves queued hellos — of type typ only, unless it is 0 — one at
// a time until enough holds or the wait has lasted d, then calls then.
func (c *coord) serveUntil(d time.Duration, enough func() bool, typ uint8, serve func(p event, next func()), then func()) {
	c.deadline = c.now.Add(d)
	queued := func() int { return slices.IndexFunc(c.pending, func(p event) bool { return typ == 0 || p.typ == typ }) }
	var next func()
	next = func() {
		if i := queued(); !enough() && i >= 0 {
			p := c.pending[i]
			c.pending = slices.Delete(c.pending, i, i+1)
			serve(p, next)
		} else if !enough() && !c.expired() {
			c.wait(func() bool { return queued() >= 0 || c.expired() }, next)
		} else {
			c.deadline = time.Time{}
			then()
		}
	}
	next()
}

// serve answers one queued connection at round r: a join is admitted
// (migrating the arcs it takes), a standby attached, a re-join answered.
func (c *coord) serve(p event, r int64, then func()) {
	switch p.typ {
	case fJoin:
		c.admit(p, r, then)
	case fRejoin:
		c.primaryRejoin(p, r, then)
	default:
		if err := c.attachStandby(p); err != nil {
			c.done(err)
			return
		}
		then()
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// flight is one granted-but-unobserved round.
type flight struct {
	round int64
	ids   []int // live workers at grant time, sorted
	mode  overload.Mode
	bEff  float64
	sel   []int // global selection, for the journal's round record
	// Per-worker columns, indexed by position in ids.
	granted  []float64
	offered  []float64
	reported []bool // a valid report arrived: lats and deltas hold it
	lats     []time.Duration
	deltas   []AccDeltas // accuracy deltas from the reports
}

func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// nextFlight resets the retired slot just past the window for round r; solve
// commits it by extending c.inflight over it.
func (c *coord) nextFlight(r int64, bEff float64, mode overload.Mode) *flight {
	k := len(c.inflight)
	if k == cap(c.inflight) {
		c.inflight = append(c.inflight, flight{})[:k]
	}
	f := &c.inflight[:k+1][k]
	n := len(c.liveList)
	f.round, f.ids, f.mode, f.bEff = r, c.liveList, mode, bEff
	f.granted = zeroed(f.granted, n)
	f.offered = zeroed(f.offered, n)
	f.reported = zeroed(f.reported, n)
	f.lats = zeroed(f.lats, n)
	f.deltas = zeroed(f.deltas, n)
	return f
}

// retireFlight pops the oldest flight, parking it past the window's end.
func (c *coord) retireFlight() {
	f := c.inflight[0]
	n := copy(c.inflight, c.inflight[1:])
	c.inflight[n] = f
	c.inflight = c.inflight[:n]
}

func (c *coord) rounds(r, skip int64) {
	c.first, c.round, c.skip = r, r, skip
	c.next()
}

// next plays round c.round once the in-flight window has room for it. A
// flight is observed — its latencies fed to the governors — exactly when it
// leaves the window, so the feedback a plan has seen depends only on the lag
// k = MaxInFlight, never on when reports arrived: at k = 1 each round is
// observed before the next is planned, at k > 1 up to k rounds overlap.
func (c *coord) next() {
	switch {
	case len(c.inflight) >= c.cfg.MaxInFlight:
		c.due = 1
		c.wait(c.dueFn, c.retireFn)
	case c.crashDue(c.round, CrashBoundary):
		c.done(ErrCoordinatorKilled)
	case c.cfg.Rounds > 0 && c.round >= int64(c.cfg.Rounds):
		c.finish()
	default:
		c.emit(effect{kind: effPull})
	}
}

func (c *coord) retire() {
	c.due = 0
	c.observe(&c.inflight[0])
	c.retireFlight()
	c.next()
}

// roundIn takes the pulled round through its boundary. Membership changes
// land only on round boundaries, after every in-flight round is drained:
// each live worker is then quiescent (awaiting this round's frame), so
// stream state moves without racing a decision and a standby's snapshot
// matches the journal. Steady state skips the drain — which lets rounds
// overlap — and keeps the live list, rebuilt here and nowhere else.
func (c *coord) roundIn() {
	if c.skip > 0 {
		if c.rndErr != nil {
			c.done(fmt.Errorf("cluster: advancing source to resume round %d: %w", c.first, c.rndErr))
			return
		}
		c.skip--
		c.emit(effect{kind: effPull})
		return
	}
	r := c.round
	if r != c.first && len(c.pending) == 0 && !c.anyDead() {
		c.play()
		return
	}
	var admit func()
	admit = func() {
		if len(c.pending) == 0 {
			c.reap(r, func() {
				c.refreshLive()
				c.play()
			})
			return
		}
		p := c.pending[0]
		c.pending = c.pending[1:]
		c.serve(p, r, admit)
	}
	c.drain(admit)
}

// play plans the pulled round and scatters its active streams to their
// owners — O(active), not O(m); a stream whose owner is not live is orphaned
// until the next boundary. Every live worker gets a round frame: an empty
// one still advances its clocks.
func (c *coord) play() {
	r, live := c.round, c.liveList
	switch {
	case len(live) == 0:
		c.done(fmt.Errorf("cluster: no live workers at round %d", r))
		return
	case c.rndErr == io.EOF:
		c.finish()
		return
	case c.rndErr != nil:
		c.done(fmt.Errorf("cluster: source: %w", c.rndErr))
		return
	}
	bEff, mode := c.rc.plan(live)
	c.fl = c.nextFlight(r, bEff, mode)
	for n := range live {
		c.scatter[n] = c.scatter[n][:0]
	}
	for k, id32 := range c.rnd.IDs {
		i := int(id32)
		if n := c.slotOf(c.owners[i]); n >= 0 {
			rp := roundPacket{stream: i, pkt: c.rnd.Pkts[k]}
			rp.truth, rp.hasT = c.truth(i)
			c.scatter[n] = append(c.scatter[n], rp)
		}
	}
	for n, id := range live {
		if n == (len(live)+1)/2 && c.crashDue(r, CrashMidScatter) {
			c.done(ErrCoordinatorKilled)
			return
		}
		m := c.members[id]
		c.sendRound(m, r, bEff, mode, c.scatter[n])
		m.want = fCandidates
	}
	c.cands = c.cands[:0]
	c.wait(c.answeredFn, c.solveFn)
}

func (c *coord) sendRound(m *member, r int64, bEff float64, mode overload.Mode, pkts []roundPacket) {
	n := len(c.arena)
	c.arena = encodeRoundDelta(c.arena, r, bEff, mode, pkts, m.prev)
	c.emitArena(fRound, m.conn, n)
	m.prev = m.prev[:0]
	for _, rp := range pkts {
		m.prev = append(m.prev, int32(rp.stream))
	}
}

// gather folds m's candidates into the global compact list: a single gate's
// solve sees zero items for idle, quarantined, and shed streams; distributed
// workers simply never offer those, so the gathered list holds exactly the
// non-zero slots of the dense array a single gate would build. Workers own
// disjoint stream sets and the solve ties on the stream id, so the lists are
// appended as they arrive — no merge into stream order — and each
// candidate's cost is parked in its stream's slot for the grant totals.
func (c *coord) gather(m *member, body []byte) {
	if c.candidatesOK(m, body, c.fl.round) {
		c.cands = append(c.cands, c.candMsg.cands...)
		for _, cand := range c.candMsg.cands {
			c.cost[cand.Stream] = cand.Cost
		}
		c.fl.offered[c.slotOf(m.id)] = c.candMsg.offered
		c.rc.observeDemand(m.id, c.candMsg.offered)
	}
}

// candidatesOK decodes m's candidates for round r into c.candMsg: all for
// streams it owns, or it dies.
func (c *coord) candidatesOK(m *member, body []byte, r int64) bool {
	err := decodeCandidates(body, c.cfg.Streams, &c.candMsg)
	if err == nil && c.candMsg.round != r {
		err = fmt.Errorf("candidates for round %d during round %d", c.candMsg.round, r)
	}
	for _, cand := range c.candMsg.cands {
		if err == nil && c.owners[cand.Stream] != m.id {
			err = fmt.Errorf("candidate for unowned stream %d", cand.Stream)
		}
	}
	if err != nil {
		c.markDead(m, err)
	}
	return err == nil
}

// solve decides the gathered round, grants it, and puts it in flight. A
// mid-round crash lands BEFORE the solve: the primary never computes (or
// hashes) a selection for this round, so the workers' local settlements
// cannot disagree with a decision that exists.
func (c *coord) solve() {
	fl := c.fl
	if c.crashDue(fl.round, CrashMidRound) {
		c.done(ErrCoordinatorKilled)
		return
	}
	c.solveGrant(fl)
	if c.cfg.OnRound != nil {
		c.emit(effect{kind: effOnRound, round: fl.round, sel: c.sel})
	}
	for k, id := range fl.ids {
		if m := c.members[id]; !m.dead {
			n := len(c.arena)
			c.arena = encodeGrant(c.arena, fl.round, c.grants[k])
			c.emitArena(fGrant, m.conn, n)
		}
	}
	fl.sel = append(fl.sel[:0], c.sel...)
	c.inflight = c.inflight[:len(c.inflight)+1]
	c.fl = nil
	c.round++
	c.next()
}

// solveGrant is the coordinator's decision step. The solve is the exact
// greedy a single giant gate runs: the ordering kernel ties on the stream id
// itself, so over the gathered list — whatever order the workers' lists were
// appended in — the selection is bit-identical to the dense solve, in time
// linear in the candidates. One pass over the selection then buckets it per
// owner, keeping global selection order within each worker's grant, and
// totals each worker's granted cost from the per-stream slots. A stream
// whose owner is not in the flight's live list is granted to no one.
// Steady state allocates nothing.
func (c *coord) solveGrant(f *flight) {
	c.sel = c.greedy.Select(c.sel[:0], c.cands, f.bEff)
	for k := range f.ids {
		c.grants[k] = c.grants[k][:0]
	}
	for _, s := range c.sel {
		if k := c.slotOf(c.owners[s]); k >= 0 {
			c.grants[k] = append(c.grants[k], s)
			f.granted[k] += c.cost[s]
		}
	}
}

func (c *coord) fold(m *member, body []byte) {
	msg, err := decodeReport(body)
	k := c.slotOf(m.id)
	var f *flight
	for i := range c.inflight {
		if c.inflight[i].round == msg.round {
			f = &c.inflight[i]
		}
	}
	if err == nil && (f == nil || k < 0 || f.reported[k]) {
		err = errors.New("no report owed")
	}
	if err != nil {
		c.markDead(m, fmt.Errorf("bad report (round %d): %v", msg.round, err))
		return
	}
	lat := msg.latency
	if c.cfg.LatencyModel != nil {
		lat = c.cfg.LatencyModel(m.id, f.granted[k], f.offered[k])
	}
	f.reported[k], f.lats[k], f.deltas[k] = true, lat, msg.deltas
}

// dueIn reports whether every worker of the due flights reported or died.
func (c *coord) dueIn() bool {
	for i := 0; i < c.due; i++ {
		f := &c.inflight[i]
		for k, id := range f.ids {
			if m := c.members[id]; !f.reported[k] && m != nil && !m.dead {
				return false
			}
		}
	}
	return true
}

// observe feeds a settled flight's latencies into the governors, in sorted
// worker order, and closes the round out.
func (c *coord) observe(f *flight) {
	var roundLat time.Duration
	var agg AccDeltas
	for k, id := range f.ids {
		if f.reported[k] {
			agg.add(f.deltas[k])
			c.rc.observeLatency(id, f.lats[k], 1)
			roundLat = max(roundLat, f.lats[k])
		}
	}
	c.lats = append(c.lats, roundLat)
	c.journalRound(f, agg, roundLat, c.cfg.SLO > 0 && roundLat > c.cfg.SLO)
	if c.cfg.OnRoundEnd != nil {
		c.emit(effect{kind: effOnRoundEnd, round: f.round})
	}
}

// drain observes every in-flight round, oldest first, once all are settled:
// then every live worker is quiescent (blocked awaiting its next round
// frame) — the precondition for membership changes and shutdown.
func (c *coord) drain(then func()) {
	c.due = len(c.inflight)
	c.wait(c.dueFn, func() {
		for i := range c.inflight {
			c.observe(&c.inflight[i])
		}
		c.inflight, c.due = c.inflight[:0], 0
		then()
	})
}

// finish drains, says goodbye — to standbys too, or a standby would take
// over a finished run — and collects every live worker's final.
func (c *coord) finish() {
	c.drain(func() {
		for _, sb := range c.standbys {
			c.emit(send(fGoodbye, sb.conn, nil))
		}
		c.refreshLive()
		for _, id := range c.liveList {
			m := c.members[id]
			c.emit(send(fGoodbye, m.conn, nil))
			m.want = fFinal
		}
		c.wait(c.answeredFn, func() { c.done(nil) })
	})
}

// report is the run summary as of now: the replica's books plus the finals'
// tails, the observations made since their last report frame.
func (c *coord) report() Report {
	rep, rs := c.rep, c.rs
	rep.Rounds, rep.Decoded, rep.DecisionHash = rs.Rounds, rs.Decoded, rs.Hash
	rep.Workers, rep.Joins = rs.Workers, rs.Joins
	rep.Transfers, rep.TransfersLost, rep.FreshAdoptions = rs.Transfers, rs.TransfersLost, rs.FreshAdoptions
	rep.SLOMisses, rep.ModeRounds = rs.SLOMisses, rs.ModeRounds
	acc := rs.Acc
	for _, fin := range rep.Finals {
		acc.add(AccDeltas{NegRounds: fin.NegRounds, NegCorrect: fin.NegCorrect,
			PosRounds: fin.PosRounds, PosCorrect: fin.PosCorrect, DecodeFailed: fin.DecodeFailed})
	}
	rep.NegRounds, rep.NegCorrect, rep.DecodeFailed = acc.NegRounds, acc.NegCorrect, acc.DecodeFailed
	rep.PosRounds, rep.PosCorrect = acc.PosRounds, acc.PosCorrect
	if total := rep.NegRounds + rep.PosRounds; total > 0 {
		rep.Accuracy = float64(rep.NegCorrect+rep.PosCorrect) / float64(total)
	}
	if rep.PosRounds > 0 {
		rep.Recall = float64(rep.PosCorrect) / float64(rep.PosRounds)
	}
	// 0 when no round was scored.
	rep.BalancedAccuracy, _ = infer.BalancedAccuracy(rep.NegRounds, rep.NegCorrect, rep.PosRounds, rep.PosCorrect)
	// P99 covers only the rounds this coordinator drove.
	rep.P99 = p99(c.lats)
	return rep
}

// admit welcomes one queued worker at round r: the next ID, the config, its
// ring points, and the state of the streams whose arcs it now owns (none at
// round 0: a fresh slot at clock 0 is exactly the oracle's state). The
// membership record follows the migration, carrying its transfer counts.
func (c *coord) admit(p event, r int64, then func()) {
	var ji JoinInfo
	if gobDecode(p.body, &ji) != nil {
		c.hangUp(p.conn)
		then()
		return
	}
	id := c.nextID
	c.nextID++
	c.epoch++
	cfg := c.cfg
	body, err := gobEncode(&Welcome{WorkerID: id, Epoch: c.epoch, CurrentRound: r, Standbys: c.standbyAddrs(), Cfg: ClusterConfig{
		Streams: cfg.Streams, Window: cfg.Window, Budget: cfg.Budget, Costs: cfg.Costs, Breaker: cfg.Breaker,
		UsePred: cfg.UsePred, Predictor: cfg.Predictor, TaskIndex: cfg.TaskIndex, UseTemporal: cfg.UseTemporal,
		Task: cfg.Task, Retry: cfg.Retry, HeartbeatEvery: cfg.Heartbeat,
	}})
	if err == nil {
		err = c.rc.addWorker(id)
	}
	if err != nil {
		c.done(err)
		return
	}
	c.emit(send(fWelcome, p.conn, body))
	m := c.install(id, p.conn)
	prev := append([]int(nil), c.owners...)
	c.ring.Add(id)
	c.ring.Owners(c.owners)
	rec := &memberRecord{Round: r, Joined: []memberInfo{{ID: id, Name: ji.Name}}}
	joined := func() {
		c.journalMember(rec)
		c.notifyMembership(r, []int{id}, nil)
		then()
	}
	if c.rs.Workers == 0 || r == 0 {
		joined()
		return
	}
	// The moved streams all moved TO the newcomer (consistent hashing), one
	// donor at a time. A donor that is dead or dies mid-retire took their
	// state with it, as does a transfer the injector keeps losing: those
	// streams are adopted fresh.
	donors, moved := movedStreams(prev, c.owners, prev)
	var orphans []int
	each(len(donors), func(i int, next func()) {
		d := donors[i]
		var blobs []StreamBlob
		c.ctrl(c.members[d], fRetire, moved[d], fState, &blobs, func(ok bool) {
			if !ok {
				orphans = append(orphans, moved[d]...)
				next()
				return
			}
			var kept []StreamBlob
			for _, b := range blobs {
				attempt := 1
				for ; attempt <= maxTransferAttempts && c.cfg.TransferFault != nil && c.cfg.TransferFault(b.Stream, attempt); attempt++ {
					rec.TransfersLost++
				}
				if attempt > maxTransferAttempts {
					orphans = append(orphans, b.Stream)
					continue
				}
				kept = append(kept, b)
				rec.Transfers++
			}
			if len(kept) == 0 {
				next()
				return
			}
			c.ctrl(m, fState, kept, fStateAck, nil, func(bool) { next() })
		})
	}, func() {
		sort.Ints(orphans)
		c.shipFresh(m, orphans, rec, joined)
	})
}

// movedStreams groups the streams whose owner differs between prev and now
// under key[stream]; keys and groups ascend.
func movedStreams(prev, now, key []int) ([]int, map[int][]int) {
	groups := map[int][]int{}
	for i := range now {
		if now[i] != prev[i] {
			groups[key[i]] = append(groups[key[i]], i)
		}
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys, groups
}

// ctrl runs one sequenced control exchange with a quiescent worker (nil or
// dead: it fails at once): typ goes out with the next sequence number and
// payload, and the wantReply frame must echo the number, its payload decoded
// into out. then learns whether it did; a failure marks m dead.
func (c *coord) ctrl(m *member, typ uint8, payload any, wantReply uint8, out any, then func(ok bool)) {
	if m == nil || m.dead {
		then(false)
		return
	}
	c.seq++
	seq := c.seq
	body, err := encodeCtrl(seq, payload)
	if err != nil {
		c.markDead(m, err)
		then(false)
		return
	}
	c.emit(send(typ, m.conn, body))
	c.expect(m, wantReply, func(reply []byte) {
		s, err := decodeCtrl(reply, out)
		if reply != nil && (err != nil || s != seq) {
			c.markDead(m, fmt.Errorf("bad reply to control frame %d (seq %d, want %d): %v", typ, s, seq, err))
		}
		then(!m.dead)
	})
}

// shipFresh tells a new owner to adopt streams with honest zero state.
func (c *coord) shipFresh(m *member, streams []int, rec *memberRecord, then func()) {
	if len(streams) == 0 {
		then()
		return
	}
	c.ctrl(m, fImportFresh, streams, fStateAck, nil, func(ok bool) {
		if ok {
			rec.FreshAdoptions += int64(len(streams))
		}
		then()
	})
}

// reap removes dead workers from the ring and fresh-adopts their streams on
// the survivors (their learned state died with them), until the membership
// is stable — an adopter may itself die mid-reap.
func (c *coord) reap(r int64, then func()) {
	var dead []int
	for id, m := range c.members {
		if m.dead {
			dead = append(dead, id)
		}
	}
	if len(dead) == 0 {
		then()
		return
	}
	sort.Ints(dead)
	prev := append([]int(nil), c.owners...)
	for _, id := range dead {
		c.ring.Remove(id)
		c.rc.removeWorker(id)
		delete(c.members, id)
		c.epoch++
	}
	if len(c.live()) == 0 {
		c.done(fmt.Errorf("cluster: all workers dead at round %d (reasons: %v)", r, c.rep.DeadReasons))
		return
	}
	c.ring.Owners(c.owners)
	rec := &memberRecord{Round: r, Died: dead}
	// An adopter that is dead by now is the next pass's to handle.
	adopters, adopted := movedStreams(prev, c.owners, c.owners)
	each(len(adopters), func(i int, next func()) {
		c.shipFresh(c.members[adopters[i]], adopted[adopters[i]], rec, next)
	}, func() {
		c.journalMember(rec)
		c.notifyMembership(r, nil, dead)
		c.reap(r, then)
	})
}

func (c *coord) notifyMembership(r int64, joined, died []int) {
	if c.cfg.OnMembership != nil {
		c.emit(effect{kind: effOnMembership, round: r, joined: joined, died: died})
	}
}
