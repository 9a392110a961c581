package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/metrics"
	"packetgame/internal/overload"
)

// This file is a worker's half of the protocol, as free of I/O as core.go:
// no goroutine, channel, socket, file or clock. The engine's two blocking
// calls — the next round, a selection — and what the session, the orphan
// source, a re-join dial and the timer bring come to step as events (the ev*
// kinds); the shell (link.go) carries out the effects in order and blocks on
// the worker's one inbox until the core has answered the engine. Gate and
// fleet calls are in memory and stay here.

// wcore is a worker's protocol state machine.
type wcore struct {
	cfg   ClusterConfig
	opts  WorkerOptions
	truth func(stream int) (codec.Scene, bool) // the orphan source's ground truth

	gate   *core.Gate
	fleet  *infer.Fleet
	over   *metrics.OverloadStats
	greedy knapsack.Greedy // the local solve: orphan rounds, a coordinator lost mid-decide

	now   time.Time
	out   []effect
	arena []byte // this step's frame bodies: out's sends alias it
	ended bool   // effDone went out
	err   error  // what it went out with

	id       int
	epoch    uint64
	standbys []string

	// The session: its connection, and the delta-coding membership of its
	// round frames (both sides start a connection from the empty set). queued
	// holds round frame bodies not yet installed, oldest first.
	conn    connID
	open    bool // no close seen on conn
	bye     bool
	prevIDs []int32
	queued  [][]byte
	// owned tracks the streams this worker has ever been routed or adopted;
	// orphan mode gates exactly these.
	owned []bool

	// lastReported is the observation watermark: totals as of the last report
	// handed to an open session or the last re-join handoff, so a death loses
	// at most one round of observations. accBase corrects totals for state
	// transfers: what a retired stream takes along was observed here, what an
	// adopted one brings was observed (and reported) elsewhere.
	lastReported, accBase AccDeltas

	// rec is the one round record, the installed round: its round, bEff and
	// mode are the plan, and round+1 is the next round this worker expects
	// (before any round, round+1 is the clock granted at admission).
	rec     roundMsg
	started bool
	since   time.Time // when the installed round went to the engine

	// The engine's call in progress, if any; ask holds a selection's.
	pulling, choosing bool
	ask               event
	// Per-stream offered cost and offer stamp: a stream is on offer in the
	// decision in progress iff its stamp is the current one, so a grant is
	// checked against the offer without clearing anything O(m).
	cost      []float64
	offered   []uint32
	stamp     uint32
	grant     grantMsg
	grantEWMA float64 // smoothed granted decode cost (orphan budget)
	grantSeen bool

	orphan  *orphanState
	sweep   *rejoinSweep
	orphanR OrphanReport
}

// orphanState drives local rounds after the coordinator is lost.
type orphanState struct {
	skip    int64 // source rounds still to discard: the cluster already played them
	left    int64
	round   int64 // next local round number
	bEff    float64
	started AccDeltas // totals watermark at orphan entry
	decoded int64
}

// rejoinSweep dials the standby list in order, attempt after attempt.
type rejoinSweep struct {
	info          RejoinInfo
	hello         []byte
	attempt, next int
}

// step hands the worker one event seen at now and returns what to do about
// it, in order, appended to out[:0]. Once the worker has ended, every engine
// call is still answered: with the end, or an empty selection.
func (c *wcore) step(now time.Time, ev event, out []effect) []effect {
	c.now, c.out, c.arena = now, out[:0], c.arena[:0]
	switch {
	case ev.kind == evPull:
		c.pulling = true
		c.pull()
	case ev.kind == evSelect:
		c.choosing, c.ask = true, ev
		c.choose()
	case c.ended: // nothing else matters now
	case ev.kind == evFrame && ev.conn == c.conn:
		c.frame(ev.typ, ev.body)
	case ev.kind == evClosed && ev.conn == c.conn:
		c.closed(ev.err)
	case ev.kind == evRound:
		c.orphanRound(ev.rnd, ev.err)
	case ev.kind == evDialed:
		c.dialed(ev)
	case ev.kind == evTimer && c.sweep != nil:
		c.dial()
	case ev.kind == evEnded:
		c.engineEnded(ev.err, ev.fin)
	}
	out = c.out
	c.out = nil
	return out
}

func (c *wcore) emit(e effect) { c.out = append(c.out, e) }

// done ends the run with err (nil: cleanly) and answers the engine's call.
func (c *wcore) done(err error) {
	if !c.ended {
		c.ended, c.err = true, err
		c.emit(effect{kind: effClose, conn: c.conn})
		c.emit(effect{kind: effDone, err: err})
		c.again()
	}
}

// again serves the engine's call in progress afresh, what it waits on having
// changed: the run ended, a goodbye came, the session died.
func (c *wcore) again() {
	if c.pulling {
		c.pull()
	}
	if c.choosing {
		c.choose()
	}
}

func (c *wcore) handRound(rnd *codec.Round, err error) {
	c.pulling = false
	e := effect{kind: effRound, rnd: rnd, err: err}
	if rnd != nil {
		e.round, e.body, e.conn = c.rec.round, c.rec.body, c.conn
	}
	c.emit(e)
}

func (c *wcore) handSelection(sel []int) {
	c.choosing = false
	c.emit(effect{kind: effSelect, sel: sel})
}

// totals snapshots the worker's cumulative observation counters. The live
// counters have no decode-failure tally, so DecodeFailed rides only in the
// final residual.
func (c *wcore) totals() AccDeltas {
	nr, nc, pr, pc := c.fleet.ClassTotals()
	snap := c.over.Snapshot()
	d := AccDeltas{
		NegRounds: nr, NegCorrect: nc,
		PosRounds: pr, PosCorrect: pc,
		Shed: snap.Shed, Deferred: snap.Deferred,
	}
	d.add(c.accBase)
	return d
}

// pull serves the engine's pull, made once the previous round was settled
// and fed back: report that round, then hand over the next one delivered —
// a round the session delivered is played even if the session has died since
// — or recover, or wait for one.
func (c *wcore) pull() {
	switch {
	case c.ended:
		c.handRound(nil, cmp.Or(c.err, io.EOF))
		return
	case c.orphan != nil:
		c.orphanPull()
		return
	case c.bye:
		c.handRound(nil, io.EOF)
		return
	}
	if c.started {
		if c.opts.CrashAfter > 0 && c.rec.round >= c.opts.CrashAfter {
			c.done(errCrashed)
			return
		}
		if c.open {
			totals := c.totals()
			n := len(c.arena)
			c.arena = appendReport(c.arena, c.rec.round, c.now.Sub(c.since), totals.sub(c.lastReported))
			c.emit(send(fReport, c.conn, c.arena[n:]))
			c.lastReported = totals
		}
	}
	c.serve()
}

// serve hands a pulling engine the oldest delivered round, or — the session
// gone and nothing left of it — starts the recovery.
func (c *wcore) serve() {
	switch {
	case !c.pulling:
	case len(c.queued) > 0:
		body := c.queued[0]
		c.queued = c.queued[:copy(c.queued, c.queued[1:])]
		if err := c.install(body); err != nil {
			c.done(err)
			return
		}
		c.since = c.now
		c.handRound(&c.rec.rnd, nil)
	case !c.open && c.sweep == nil && c.opts.Orphan != nil:
		c.enterOrphan()
	case !c.open && c.sweep == nil:
		c.rejoin(c.rec.round+1, false)
	}
}

// install decodes a round frame body into the record and advances the
// session's membership; a rejected frame leaves the membership as it was.
// The record's packets alias body, which stays the record's until the engine
// pulls again.
func (c *wcore) install(body []byte) error {
	if err := decodeRoundDelta(body, c.cfg.Streams, c.prevIDs, &c.rec); err != nil {
		return err
	}
	c.rec.body = body
	c.prevIDs = append(c.prevIDs[:0], c.rec.rnd.IDs...)
	for _, id := range c.rec.rnd.IDs {
		c.owned[id] = true
	}
	c.started = true
	return nil
}

// frame takes one frame from the coordinator. Control frames move gate
// state, which only a gate between rounds may do: one arriving while a grant
// is awaited (mid-decide) is a protocol error, like a grant nobody asked for.
func (c *wcore) frame(typ uint8, body []byte) {
	var err error
	switch typ {
	case fRound:
		c.queued = append(c.queued, body)
		c.serve()
	case fGrant:
		err = c.granted(body)
	case fRetire, fState, fImportFresh:
		if c.choosing {
			err = fmt.Errorf("cluster: control frame %d while awaiting a grant", typ)
		} else {
			err = c.control(typ, body)
		}
	case fStandbys:
		var addrs []string
		if err = gobDecode(body, &addrs); err == nil {
			c.standbys = addrs
		}
	case fGoodbye:
		c.bye = true
		c.again()
	case fHeartbeat:
		// Coordinator heartbeat (standby path); tolerate and ignore.
	default:
		err = fmt.Errorf("cluster: worker got unexpected frame type %d", typ)
	}
	if err != nil {
		c.done(err)
	}
}

// closed takes the session's death: the end of the run unless there is a
// way on — re-home to a standby, or orphan mode — and then a local solve for
// a decision in progress, recovery for a waiting pull.
func (c *wcore) closed(err error) {
	c.open = false
	switch {
	case c.bye:
	case c.opts.Orphan == nil && len(c.standbys) == 0:
		c.done(err)
	default:
		c.again()
	}
}

// choose serves the engine's selection. cands is the gate's active set —
// idle, quarantined and shed streams are absent, as a single gate would not
// offer them either — and goes to the global solve verbatim; the grant is
// this worker's slice of the global selection, in global order. Distributing
// the solve could never be bit-identical to a single gate; distributing only
// the scoring is. The budget (the planner's bEff) drives only the local
// greedy: orphan rounds, or no coordinator to ask — degraded, never stalled.
func (c *wcore) choose() {
	switch {
	case c.ended || c.bye:
		c.handSelection(c.ask.sel)
	case c.orphan != nil || !c.open:
		sel := c.greedy.Select(c.ask.sel, c.ask.cands, c.ask.budget)
		if c.orphan != nil {
			c.orphan.decoded += int64(len(sel) - len(c.ask.sel))
		}
		c.handSelection(sel)
	default:
		c.stamp++
		var offered float64
		for _, cand := range c.ask.cands {
			c.cost[cand.Stream], c.offered[cand.Stream] = cand.Cost, c.stamp
			offered += cand.Cost
		}
		n := len(c.arena)
		c.arena = encodeCandidates(c.arena, c.rec.round, offered, c.ask.cands)
		c.emit(send(fCandidates, c.conn, c.arena[n:]))
	}
}

// granted applies a grant: for the round in decision, naming only streams
// this worker offered, each once. Its cost feeds the orphan budget estimate.
func (c *wcore) granted(body []byte) error {
	if !c.choosing {
		return errors.New("cluster: grant while no decision is in progress")
	}
	if err := decodeGrantInto(body, c.cfg.Streams, &c.grant); err != nil {
		return err
	}
	if c.grant.round != c.rec.round {
		return fmt.Errorf("cluster: grant for round %d while deciding round %d", c.grant.round, c.rec.round)
	}
	var cost float64
	for _, s := range c.grant.streams {
		if c.offered[s] != c.stamp {
			return fmt.Errorf("cluster: grant names stream %d, not on offer in round %d or named twice", s, c.rec.round)
		}
		c.offered[s] = 0
		cost += c.cost[s]
	}
	if c.grantSeen {
		c.grantEWMA += demandAlpha * (cost - c.grantEWMA)
	} else {
		c.grantEWMA, c.grantSeen = cost, true
	}
	c.handSelection(append(c.ask.sel, c.grant.streams...))
	return nil
}

// control serves one sequenced control frame — retire, state, fresh-adopt:
// decode, check every blob's monitor state, update the owned set, act, reply
// under the same sequence number.
// Adopted streams take the state they came with, or — a fresh adoption,
// their state was lost — honest zero state: breaker clock pinned to now,
// temporal-only until windows refill.
func (c *wcore) control(typ uint8, body []byte) error {
	var ids []int
	var blobs []StreamBlob
	var seq uint64
	var err error
	if typ == fState {
		seq, err = decodeCtrl(body, &blobs)
		for _, b := range blobs {
			ids = append(ids, b.Stream)
			err = cmp.Or(err, b.Monitor.Validate())
		}
	} else {
		seq, err = decodeCtrl(body, &ids)
	}
	if err != nil {
		return err
	}
	for _, i := range ids {
		if i < 0 || i >= len(c.owned) {
			return fmt.Errorf("cluster: control frame %d names stream %d outside [0,%d)", typ, i, len(c.owned))
		}
		c.owned[i] = typ != fRetire
	}
	if typ == fRetire {
		return c.retire(seq, ids)
	}
	for _, b := range blobs {
		if err := c.gate.ImportStream(b.Stream, b.Gate); err != nil {
			return fmt.Errorf("cluster: adopt %d: %w", b.Stream, err)
		}
		mon := b.Monitor
		c.accBase = c.accBase.sub(AccDeltas{NegRounds: mon.NegRounds, NegCorrect: mon.NegCorrect, PosRounds: mon.PosRounds, PosCorrect: mon.PosCorrect})
		_ = c.fleet.Stream(b.Stream).Import(mon) // validated above: nothing to refuse
	}
	for _, i := range ids[len(blobs):] { // fresh adoptions: a state frame's ids are its blobs'
		if err := c.gate.ImportFreshStream(i); err != nil {
			return fmt.Errorf("cluster: fresh adopt %d: %w", i, err)
		}
		c.fleet.Stream(i).Reset()
	}
	body, _ = encodeCtrl(seq, nil) // the ack: no payload, nothing to fail
	c.emit(send(fStateAck, c.conn, body))
	return nil
}

// retire exports the named streams (gate + monitor), resets their local
// slots, and replies with the serialized state batch.
func (c *wcore) retire(seq uint64, ids []int) error {
	blobs := make([]StreamBlob, 0, len(ids))
	for _, i := range ids {
		st, err := c.gate.ExportStream(i)
		if err != nil {
			return fmt.Errorf("cluster: retire export %d: %w", i, err)
		}
		mon := c.fleet.Stream(i).Export()
		if err := c.gate.RetireStream(i); err != nil {
			return fmt.Errorf("cluster: retire %d: %w", i, err)
		}
		c.accBase.add(AccDeltas{NegRounds: mon.NegRounds, NegCorrect: mon.NegCorrect, PosRounds: mon.PosRounds, PosCorrect: mon.PosCorrect})
		c.fleet.Stream(i).Reset()
		blobs = append(blobs, StreamBlob{Stream: i, Gate: st, Monitor: mon})
	}
	body, err := encodeCtrl(seq, &blobs)
	if err != nil {
		return err
	}
	c.emit(send(fState, c.conn, body))
	return nil
}

// rejoin starts a sweep of the standby list — jittered backoff between
// sweeps — until one accepts. reconcileOnly hands in observations and
// departs; otherwise the accepted connection becomes the session.
func (c *wcore) rejoin(clock int64, reconcileOnly bool) {
	c.sweep = &rejoinSweep{info: RejoinInfo{
		WorkerID: c.id, Epoch: c.epoch, Clock: clock, Name: c.opts.Name,
		ReconcileOnly: reconcileOnly, Deltas: c.totals().sub(c.lastReported),
	}}
	c.sweep.hello, _ = gobEncode(&c.sweep.info) // plain values: nothing to fail
	c.dial()
}

// dial tries the sweep's next standby, or arms the pause before the next
// sweep, or gives up.
func (c *wcore) dial() {
	s := c.sweep
	if s.next < len(c.standbys) {
		c.emit(effect{kind: effDial, addr: c.standbys[s.next], typ: fRejoin, body: s.hello, at: c.now.Add(rejoinReplyWait)})
		s.next++
		return
	}
	if s.attempt++; s.attempt == rejoinAttempts {
		c.rejoined(fmt.Errorf("cluster: no standby accepted re-join after %d sweeps", rejoinAttempts))
		return
	}
	s.next = 0
	c.emit(effect{kind: effTimer, at: c.now.Add(rejoinBackoff(rejoinBase, c.id, s.attempt-1))})
}

// dialed takes a dial's outcome: a failure — no connection, or no verdict on
// it — tries the next standby; a verdict ends the sweep. An accepted handoff
// carried every observation not yet reported (the engine has been waiting
// since), and an accepted re-home makes the new connection the session —
// fresh delta coding, the elected coordinator's epoch and standbys.
func (c *wcore) dialed(ev event) {
	var tk TakeoverInfo
	err := answer(ev.typ, ev.body, ev.err, fTakeover, &tk)
	switch {
	case err != nil:
		c.emit(effect{kind: effClose, conn: ev.conn})
		c.dial()
	case !tk.Accepted:
		c.emit(effect{kind: effClose, conn: ev.conn})
		c.rejoined(fmt.Errorf("cluster: re-join rejected: %s", tk.Reason))
	case c.sweep.info.ReconcileOnly:
		c.lastReported = c.totals()
		c.emit(effect{kind: effClose, conn: ev.conn})
		c.rejoined(nil)
	default:
		c.lastReported = c.totals()
		c.conn, c.open, c.prevIDs = ev.conn, true, c.prevIDs[:0]
		c.epoch, c.standbys = tk.Epoch, tk.Standbys
		c.rejoined(nil)
	}
}

// rejoined ends a sweep: an orphan retires (reconciled or not); a re-homed
// worker waits for rounds on its new session.
func (c *wcore) rejoined(err error) {
	reconcile := c.sweep.info.ReconcileOnly
	c.sweep = nil
	switch {
	case reconcile:
		o := c.orphan
		c.orphanR.Deltas = c.totals().sub(o.started)
		c.orphanR.Decoded = o.decoded
		c.orphanR.Reconciled = err == nil
		c.handRound(nil, io.EOF)
	case err != nil:
		c.done(err)
	default:
		c.serve()
	}
}

// enterOrphan switches to local gating: advance the identically-seeded local
// source past the rounds already played, then serve Orphan.Rounds local
// rounds filtered to the owned streams at the last granted budget — else the
// planned share, else the configured budget.
func (c *wcore) enterOrphan() {
	clock := c.rec.round + 1
	bEff := c.grantEWMA
	if !c.grantSeen {
		bEff = c.cfg.Budget
		if c.started {
			bEff = c.rec.bEff
		}
	}
	c.orphan = &orphanState{skip: clock, left: c.opts.Orphan.Rounds, round: clock, bEff: bEff, started: c.totals()}
	c.orphanR.Entered = true
	c.orphanPull()
}

// orphanPull pulls the local source for the next orphan round or, once the
// orphan rounds are spent, reconciles with a live coordinator and retires.
func (c *wcore) orphanPull() {
	if o := c.orphan; o.skip == 0 && o.left <= 0 {
		c.rejoin(o.round, true)
		return
	}
	c.emit(effect{kind: effPull})
}

func (c *wcore) orphanRound(rnd *codec.Round, err error) {
	o := c.orphan
	switch {
	case o.skip > 0 && err != nil:
		c.done(fmt.Errorf("cluster: orphan source behind cluster clock %d: %w", o.round, err))
	case o.skip > 0:
		o.skip--
		c.orphanPull()
	case err != nil:
		o.left = 0 // source exhausted mid-orphan: reconcile what we have
		c.orphanPull()
	default:
		// The record takes the owned entries (best effort: streams never routed
		// here are unknown and skipped); the packets stay the source's own.
		o.left--
		r := &c.rec
		r.rnd.Reset(len(c.owned))
		r.truth, r.hasT = r.truth[:0], r.hasT[:0]
		for k, id := range rnd.IDs {
			if int(id) < len(c.owned) && c.owned[id] {
				t, ok := c.truth(int(id))
				r.rnd.Append(id, rnd.Pkts[k])
				r.truth, r.hasT = append(r.truth, t), append(r.hasT, ok)
			}
		}
		r.round, r.bEff, r.mode, r.body = o.round, o.bEff, overload.ModeTemporalOnly, nil
		o.round++
		c.orphanR.Rounds++
		c.handRound(&r.rnd, nil)
	}
}

// engineEnded closes the run out once the engine has stopped. After a
// goodbye the final carries only the residual past the lastReported
// watermark: the per-round reports already delivered everything before it.
func (c *wcore) engineEnded(err error, fin *WorkerFinal) {
	if !c.bye || err != nil {
		c.done(err) // crashed, failed, or an orphan retired: no final
		return
	}
	d := c.totals().sub(c.lastReported)
	fin.NegRounds, fin.NegCorrect, fin.PosRounds, fin.PosCorrect = d.NegRounds, d.NegCorrect, d.PosRounds, d.PosCorrect
	fin.Shed, fin.Deferred = d.Shed, d.Deferred
	body, err := gobEncode(fin)
	if err != nil {
		c.done(err)
		return
	}
	c.emit(send(fFinal, c.conn, body))
	c.emit(send(fGoodbye, c.conn, nil))
	c.done(nil)
}
