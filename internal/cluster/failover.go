package cluster

import (
	"time"

	"packetgame/internal/overload"
)

// This file is the primary's half of fail-over: maintaining the replica
// image + journal + standby mirror stream, and handling re-joins from
// workers that lost their connection. The standby's half (follow, election,
// takeover) lives in standby.go.

func (c *Coordinator) crashDue(r int64, p CrashPoint) bool {
	return c.cfg.CrashAtRound > 0 && r == c.cfg.CrashAtRound && c.cfg.CrashPoint == p
}

// journalRound folds one observed round into the replica image and mirrors
// the record to the journal file and every standby. Called from
// observeFlight — the round's reports are in, so the record carries the
// post-observe governor state and the round's aggregated accuracy deltas.
func (c *Coordinator) journalRound(f *flight, agg AccDeltas, roundLat time.Duration, sloMiss bool) {
	rec := roundRecord{
		Round: f.round, BEff: f.bEff, Mode: uint8(f.mode),
		LatNs: int64(roundLat), SLOMiss: sloMiss,
		Sel: f.sel, Deltas: agg,
	}
	for _, id := range f.ids {
		if wc := c.workers[id]; wc != nil && !wc.dead {
			rec.Ctl = append(rec.Ctl, c.rc.exportCtl(id))
		}
	}
	c.rs.applyRound(&rec)
	c.mirrorRecord(jRound, &rec)
	// Compaction happens only here — at an observed-round point, where the
	// replica is a consistent image of everything journaled so far.
	if c.jr != nil && c.jr.shouldCompact() {
		if err := c.compactJournal(); err != nil && c.jerr == nil {
			c.jerr = err
		}
	}
}

// compactJournal rewrites the journal file as a snapshot of the replica.
func (c *Coordinator) compactJournal() error {
	snap, err := gobEncode(c.rs)
	if err != nil {
		return err
	}
	return c.jr.compact(snap)
}

// journalMember stamps a completed membership change and its migration's
// counts with the epoch it produced, folds it into the replica, mirrors it.
func (c *Coordinator) journalMember(rec *memberRecord) {
	rec.Epoch, rec.NextID = c.epoch, c.nextID
	if err := c.rs.applyMember(rec); err != nil && c.jerr == nil {
		c.jerr = err
	}
	c.mirrorRecord(jMember, rec)
}

// journalReconcile folds out-of-round accuracy deltas (re-home handoffs,
// orphan reconciles, catch-up rounds) into the replica and mirrors them.
func (c *Coordinator) journalReconcile(d AccDeltas) {
	if d == (AccDeltas{}) {
		return
	}
	c.rs.Acc.add(d)
	c.mirrorRecord(jReconcile, &d)
}

// mirrorRecord serializes one journal record to the durable file and the
// standby frame stream. The in-memory replica is updated by the caller
// (typed, no serialization cost) so this is a no-op when neither a journal
// file nor a standby is attached. A journal write failure is recorded and
// fails the run at the next boundary: silent non-durability would be worse.
func (c *Coordinator) mirrorRecord(kind uint8, rec any) {
	if c.jr == nil && len(c.standbys) == 0 {
		return
	}
	body, err := gobEncode(rec)
	if err != nil {
		if c.jerr == nil {
			c.jerr = err
		}
		return
	}
	if c.jr != nil {
		if err := c.jr.append(kind, body); err != nil && c.jerr == nil {
			c.jerr = err
		}
	}
	c.pushStandbys(kind, body)
}

// pushStandbys streams one record to every live standby and prunes the
// dead; workers learn of a pruned standby via the refreshed address list.
func (c *Coordinator) pushStandbys(kind uint8, body []byte) {
	if len(c.standbys) == 0 {
		return
	}
	c.jbuf = append(c.jbuf[:0], kind)
	c.jbuf = append(c.jbuf, body...)
	live := c.standbys[:0]
	for _, sc := range c.standbys {
		if sc.send(fJournalAppend, c.jbuf) == nil {
			live = append(live, sc)
		}
	}
	pruned := len(live) != len(c.standbys)
	c.standbys = live
	if pruned {
		c.broadcastStandbys()
	}
}

// standbyConn is the primary's handle on one attached standby: the link the
// round loop and a heartbeat pump share, and the address workers re-home to.
type standbyConn struct {
	*link
	addr string
}

// attachStandby registers a standby at a consistent point (quorum or a
// drained round boundary): it receives a snapshot of the replica image and
// from then on every mirrored record, putting it exactly at the journal
// position a file replay would reach. Heartbeats feed its lease between
// records: quiet stretches (slow rounds, idle sources) are not primary death.
func (c *Coordinator) attachStandby(p *pending) error {
	var sj StandbyJoin
	snap, err := gobEncode(c.rs)
	if err != nil || gobDecode(p.hello, &sj) != nil {
		p.close()
		return err
	}
	sc := &standbyConn{link: p.link, addr: sj.Addr}
	if sc.send(fSnapshotOffer, snap) != nil {
		return nil // stillborn standby, not a cluster error
	}
	c.standbys = append(c.standbys, sc)
	go sc.beat(c.cfg.Heartbeat, func() []byte { return nil })
	c.broadcastStandbys()
	return nil
}

// standbyAddrs lists the live standbys' re-home addresses.
func (c *Coordinator) standbyAddrs() []string {
	var addrs []string
	for _, sc := range c.standbys {
		if sc.alive() && sc.addr != "" {
			addrs = append(addrs, sc.addr)
		}
	}
	return addrs
}

// broadcastStandbys tells every live worker where to re-home if this
// coordinator dies. It runs between admissions too, so it walks the
// membership, not the round loop's live list; send order is immaterial.
func (c *Coordinator) broadcastStandbys() {
	addrs := c.standbyAddrs()
	body, err := gobEncode(&addrs)
	if err != nil {
		return
	}
	for _, wc := range c.workers {
		if !wc.dead {
			if err := wc.send(fStandbys, body); err != nil {
				c.markDead(wc, err)
			}
		}
	}
}

// replyTakeover is the one writer of the re-join verdict. A reply that
// cannot be delivered leaves the member to the reap, same as never arriving.
func replyTakeover(p *pending, tk TakeoverInfo) bool {
	body, err := gobEncode(&tk)
	return err == nil && p.send(fTakeover, body) == nil
}

func refuseRejoin(p *pending, reason string) {
	replyTakeover(p, TakeoverInfo{Reason: reason})
	p.close()
}

// rejoinHello opens every re-join, at a live primary or in a takeover window:
// decode the hello, and settle a reconcile-only one (an orphan handing in its
// observations, not asking for a seat) on the spot. !ok: unreadable, dropped.
func (c *Coordinator) rejoinHello(p *pending) (info RejoinInfo, ok bool) {
	if gobDecode(p.hello, &info) != nil {
		p.close()
		return info, false
	}
	if info.ReconcileOnly {
		c.journalReconcile(info.Deltas)
		replyTakeover(p, TakeoverInfo{Accepted: true, Reason: "reconciled", Epoch: c.epoch})
		p.close()
	}
	return info, true
}

// acceptRejoin replies fTakeover and installs the worker's replacement
// connection under its existing ring identity.
func (c *Coordinator) acceptRejoin(p *pending, info RejoinInfo, resume int64) (*wconn, bool) {
	tk := TakeoverInfo{Accepted: true, Epoch: c.epoch, Resume: resume, Standbys: c.standbyAddrs()}
	if !replyTakeover(p, tk) {
		p.close()
		return nil, false
	}
	return c.install(info.WorkerID, p), true
}

// primaryRejoin handles a re-join arriving at a live primary: an orphan
// reconciling its observations, or a worker whose *connection* (not the
// coordinator) died re-homing to the same primary before the reap removed
// it from the ring. Revival is pure reconnection — the worker kept its
// gate state and ownership never changed — plus empty-round catch-up for
// the rounds it missed.
func (c *Coordinator) primaryRejoin(p *pending, r int64) error {
	info, ok := c.rejoinHello(p)
	if !ok || info.ReconcileOnly {
		return nil
	}
	if old, ok := c.workers[info.WorkerID]; !ok || !old.dead {
		refuseRejoin(p, "not a re-homeable member")
		return nil
	}
	wc, ok := c.acceptRejoin(p, info, r)
	if !ok {
		return nil
	}
	if err := c.rc.addWorker(wc.id); err != nil {
		return err
	}
	c.journalReconcile(info.Deltas)
	c.catchUp(wc, info.Clock, r)
	return nil
}

// catchUp advances one re-homed laggard from its clock to the resume round
// with empty rounds through the regular engine path — round frame →
// candidates → grant → report — so its gate clocks advance exactly as if
// it had idled through the rounds it missed. Deltas settled along the way
// are folded as reconcile records.
func (c *Coordinator) catchUp(wc *wconn, from, to int64) {
	for k := from; k < to; k++ {
		c.roundB = encodeRoundDelta(c.roundB[:0], k, c.cfg.Budget, overload.ModeFull, nil, wc.prev)
		wc.prev = wc.prev[:0]
		if err := wc.send(fRound, c.roundB); err != nil {
			c.markDead(wc, err)
			return
		}
		if !c.candidatesFrom(wc, k) {
			return
		}
		c.grantsB = encodeGrant(c.grantsB[:0], k, nil)
		if err := wc.send(fGrant, c.grantsB); err != nil {
			c.markDead(wc, err)
			return
		}
		msg, ok := c.reportFrom(wc, k)
		if !ok {
			return
		}
		c.journalReconcile(msg.deltas)
	}
}
