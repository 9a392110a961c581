package cluster

import (
	"errors"
	"fmt"
	"time"

	"packetgame/internal/overload"
)

// The protocol's fail-over half, as free of I/O as core.go: the replica
// image and its mirrors (journal file, standbys), re-joins, a standby's
// following phase, and its takeover.

func (c *coord) crashDue(r int64, p CrashPoint) bool {
	return c.cfg.CrashAtRound > 0 && r == c.cfg.CrashAtRound && c.cfg.CrashPoint == p
}

// journalRound folds one observed round — its post-observe governor state
// and aggregated accuracy deltas — into the replica image and mirrors it.
func (c *coord) journalRound(f *flight, agg AccDeltas, roundLat time.Duration, sloMiss bool) {
	rec := roundRecord{
		Round: f.round, BEff: f.bEff, Mode: uint8(f.mode),
		LatNs: int64(roundLat), SLOMiss: sloMiss,
		Sel: f.sel, Deltas: agg,
	}
	for _, id := range f.ids {
		if m := c.members[id]; m != nil && !m.dead {
			rec.Ctl = append(rec.Ctl, c.rc.exportCtl(id))
		}
	}
	c.rs.applyRound(&rec)
	c.mirrorRecord(jRound, &rec)
	// Compaction happens only here — at an observed-round point, where the
	// replica is a consistent image of everything journaled so far.
	if c.journaled && c.since >= compactEvery {
		c.compactJournal()
	}
}

// compactJournal rewrites the journal file as a snapshot of the replica.
func (c *coord) compactJournal() {
	snap, err := gobEncode(c.rs)
	if err != nil {
		c.done(err)
		return
	}
	c.emit(effect{kind: effCompact, body: snap})
	c.since = 0
}

// journalMember stamps a completed membership change and its migration's
// counts with the epoch it produced, folds it into the replica, mirrors it.
func (c *coord) journalMember(rec *memberRecord) {
	rec.Epoch, rec.NextID = c.epoch, c.nextID
	if err := c.rs.applyMember(rec); err != nil {
		c.done(err)
		return
	}
	c.mirrorRecord(jMember, rec)
}

// journalReconcile folds out-of-round accuracy deltas (re-home handoffs,
// orphan reconciles, catch-up rounds) into the replica and mirrors them.
func (c *coord) journalReconcile(d AccDeltas) {
	if d != (AccDeltas{}) {
		c.rs.Acc.add(d)
		c.mirrorRecord(jReconcile, &d)
	}
}

// mirrorRecord serializes one journal record, already folded into the
// replica, to the journal file and the standbys.
func (c *coord) mirrorRecord(kind uint8, rec any) {
	if !c.journaled && len(c.standbys) == 0 {
		return
	}
	body, err := gobEncode(rec)
	if err != nil {
		c.done(err)
		return
	}
	if c.journaled {
		c.emit(effect{kind: effJournal, typ: kind, body: body})
		c.since++
	}
	if len(c.standbys) > 0 {
		n := len(c.arena)
		c.arena = append(append(c.arena, kind), body...)
		for _, sb := range c.standbys {
			c.emit(send(fJournalAppend, sb.conn, c.arena[n:]))
		}
	}
}

// attachStandby registers a standby at a consistent point (quorum or a
// drained boundary): a snapshot of the replica, then every mirrored record,
// puts it exactly where a file replay would. The shell starts its heartbeat
// with the snapshot offer; its link's death prunes it.
func (c *coord) attachStandby(p event) error {
	var sj StandbyJoin
	snap, err := gobEncode(c.rs)
	if err != nil || gobDecode(p.body, &sj) != nil {
		c.hangUp(p.conn)
		return err
	}
	c.emit(send(fSnapshotOffer, p.conn, snap))
	c.standbys = append(c.standbys, standbyRef{conn: p.conn, addr: sj.Addr})
	c.broadcastStandbys()
	return nil
}

// standbyAddrs lists the attached standbys' re-home addresses.
func (c *coord) standbyAddrs() []string {
	var addrs []string
	for _, sb := range c.standbys {
		if sb.addr != "" {
			addrs = append(addrs, sb.addr)
		}
	}
	return addrs
}

// broadcastStandbys tells every live worker where to re-home if this
// coordinator dies; send order is immaterial.
func (c *coord) broadcastStandbys() {
	addrs := c.standbyAddrs()
	if body, err := gobEncode(&addrs); err == nil {
		for _, m := range c.members {
			if !m.dead {
				c.emit(send(fStandbys, m.conn, body))
			}
		}
	}
}

// replyTakeover is the one writer of the re-join verdict.
func (c *coord) replyTakeover(conn connID, tk TakeoverInfo) {
	if body, err := gobEncode(&tk); err == nil {
		c.emit(send(fTakeover, conn, body))
	}
}

func (c *coord) refuseRejoin(p event, reason string) {
	c.replyTakeover(p.conn, TakeoverInfo{Reason: reason})
	c.hangUp(p.conn)
}

// rejoinHello opens every re-join, at a live primary or in a takeover window:
// decode the hello, and settle a reconcile-only one (an orphan handing in its
// observations, not asking for a seat) on the spot. !ok: unreadable, dropped.
func (c *coord) rejoinHello(p event) (info RejoinInfo, ok bool) {
	if gobDecode(p.body, &info) != nil {
		c.hangUp(p.conn)
		return info, false
	}
	if info.ReconcileOnly {
		c.journalReconcile(info.Deltas)
		c.replyTakeover(p.conn, TakeoverInfo{Accepted: true, Reason: "reconciled", Epoch: c.epoch})
		c.hangUp(p.conn)
	}
	return info, true
}

// acceptRejoin replies fTakeover and installs the worker's replacement
// connection under its existing ring identity.
func (c *coord) acceptRejoin(p event, info RejoinInfo, resume int64) *member {
	c.replyTakeover(p.conn, TakeoverInfo{Accepted: true, Epoch: c.epoch, Resume: resume, Standbys: c.standbyAddrs()})
	return c.install(info.WorkerID, p.conn)
}

// primaryRejoin handles a re-join at a running coordinator: an orphan
// reconciling, or a dead member not yet reaped re-homing (late for a
// takeover window, say) — pure reconnection, the worker kept its gate state
// and ownership never changed, plus catch-up for the rounds it missed.
func (c *coord) primaryRejoin(p event, r int64, then func()) {
	info, ok := c.rejoinHello(p)
	if !ok || info.ReconcileOnly {
		then()
		return
	}
	if old := c.members[info.WorkerID]; old == nil || !old.dead {
		c.refuseRejoin(p, "not a re-homeable member")
		then()
		return
	}
	m := c.acceptRejoin(p, info, r)
	if err := c.rc.addWorker(m.id); err != nil {
		c.done(err)
		return
	}
	c.journalReconcile(info.Deltas)
	c.catchUp(m, info.Clock, r, then)
}

// catchUp advances a re-homed laggard from round k to round to with empty
// rounds through the regular path — round frame, candidates, grant, report —
// so its gate clocks advance as if it had idled through them; the deltas
// settled on the way are reconcile records.
func (c *coord) catchUp(m *member, k, to int64, then func()) {
	if k >= to || m.dead {
		then()
		return
	}
	c.sendRound(m, k, c.cfg.Budget, overload.ModeFull, nil)
	c.expect(m, fCandidates, func(body []byte) {
		if body == nil || !c.candidatesOK(m, body, k) {
			then()
			return
		}
		n := len(c.arena)
		c.arena = encodeGrant(c.arena, k, nil)
		c.emitArena(fGrant, m.conn, n)
		c.expect(m, fReport, func(body []byte) {
			msg, err := decodeReport(body)
			if body != nil && (err != nil || msg.round != k) {
				c.markDead(m, fmt.Errorf("bad report (round %d, want %d): %v", msg.round, k, err))
			}
			if m.dead {
				then()
				return
			}
			c.journalReconcile(msg.deltas)
			c.catchUp(m, k+1, to, then)
		})
	})
}

// A standby follows the primary before it leads (DESIGN §16): the offer that
// answers its dial is its replica image, mirrored journal records keep it
// current, and each primary frame renews the primary's lease. A goodbye
// stands it down; a step at or past the lease end that brings no primary
// frame elects, and the takeover runs in that step. A failed dial, or a
// journal stream it cannot apply, ends the run with an error.

// follow opens a standby's reign: the dial to primary.
func (c *coord) follow(primary string, join StandbyJoin) {
	body, _ := gobEncode(&join) // plain values: nothing to fail
	c.emit(effect{kind: effDial, addr: primary, typ: fStandbyJoin, body: body, at: c.now.Add(c.cfg.JoinTimeout)})
}

// followed takes the dial's outcome: the offer is the image; the lease starts.
func (c *coord) followed(ev event) {
	rs := new(replicaState)
	if err := answer(ev.typ, ev.body, ev.err, fSnapshotOffer, rs); err != nil {
		c.hangUp(ev.conn)
		c.done(fmt.Errorf("cluster: standby follow: %w", err))
		return
	}
	c.rs, c.primary = rs, ev.conn
	c.deadline = c.now.Add(c.cfg.Lease)
	c.wait(c.expired, c.elect)
}

func (c *coord) fromPrimary(conn connID) bool { return conn != 0 && conn == c.primary }

// primaryFrame takes one frame from the primary while following.
func (c *coord) primaryFrame(typ uint8, body []byte) {
	var err error
	switch {
	case typ == fGoodbye:
		c.done(nil)
	case typ == fJournalAppend && len(body) == 0:
		err = errors.New("cluster: empty journal append frame")
	case typ == fJournalAppend:
		err = c.rs.apply(body[0], body[1:])
	case typ != fHeartbeat:
		err = fmt.Errorf("cluster: standby got unexpected frame %d", typ)
	}
	if err != nil {
		c.done(err)
	}
	c.deadline = c.now.Add(c.cfg.Lease)
}

// elect ends the following phase: the image the primary mirrored is taken over.
func (c *coord) elect() {
	c.hangUp(c.primary)
	c.primary, c.elected = 0, true
	c.takeover(c.rs)
}

// takeover turns a followed (or file-replayed) replica into a live
// coordinator. After restoring the control plane it holds the re-join window:
// each journaled member re-homes (new connection, same ring identity, gate
// state intact) or reconciles (an orphan handing in its observations before
// leaving); joins and standbys queue for the first boundary meanwhile. The
// window closes as soon as every member is accounted for — the deterministic
// path — or after RejoinWait, the safety net for members that died with the
// primary. Rounds resume at the max of the journal clock and every re-homed
// worker's (rounds the dead primary granted but never journaled must not be
// replayed at workers that already played them), once the laggards are
// caught up in id order, from the identically seeded source advanced to it.
func (c *coord) takeover(rs *replicaState) {
	if err := c.restore(rs); err != nil {
		c.done(err)
		return
	}
	seen, clocks := map[int]bool{}, map[int]int64{}
	c.serveUntil(c.cfg.RejoinWait, func() bool { return len(seen) == len(c.rs.Members) }, fRejoin, func(p event, next func()) {
		info, ok := c.rejoinHello(p)
		id := info.WorkerID
		_, want := c.rs.member(id)
		switch {
		case !ok:
		case info.ReconcileOnly:
			if want && !seen[id] {
				seen[id] = true
				c.rep.DeadReasons[id] = "orphan: reconciled and left"
			}
		case !want || seen[id]:
			c.refuseRejoin(p, fmt.Sprintf("worker %d is not a pending member of this takeover", id))
		default:
			seen[id] = true
			c.acceptRejoin(p, info, c.rs.Round)
			clocks[id] = info.Clock
			c.journalReconcile(info.Deltas)
		}
		next()
	}, func() {
		resume := c.rs.Round
		for _, clk := range clocks {
			resume = max(resume, clk)
		}
		catchUp := func() {
			each(len(c.rs.Members), func(i int, next func()) {
				id := c.rs.Members[i].ID
				if from, ok := clocks[id]; ok {
					c.catchUp(c.members[id], from, resume, next)
				} else {
					next()
				}
			}, func() { c.rounds(resume, resume) })
		}
		// Members that never came back died with the primary; reconciled
		// orphans left on purpose. Both get placeholder dead entries so the
		// regular reap path adopts their arcs at the first round boundary.
		for _, mi := range c.rs.Members {
			if id := mi.ID; c.members[id] == nil {
				c.members[id] = &member{id: id, dead: true}
				c.rep.Deaths++
				if _, ok := c.rep.DeadReasons[id]; !ok {
					c.rep.DeadReasons[id] = "did not re-home after takeover"
				}
				c.rc.removeWorker(id)
			}
		}
		if len(c.live()) > 0 {
			catchUp()
			return
		}
		// A cold takeover of a fully-dead fleet: nobody survived to re-home.
		// Rebuild the data plane from fresh joins up to quorum instead — the
		// journaled round clock, decision hash, and accuracy accounting carry
		// forward; the dead members' arcs are fresh-adopted at the first
		// round boundary, exactly like any other reap.
		c.quorum(resume, func(err error) {
			if err != nil {
				c.done(fmt.Errorf("cluster: no workers re-homed after takeover: %w", err))
				return
			}
			catchUp()
		})
	})
}

// restore rebuilds the control plane from the replica image, which becomes
// this coordinator's own, so the final report spans both reigns.
func (c *coord) restore(rs *replicaState) error {
	if rs.Streams != c.cfg.Streams || rs.Window != c.cfg.Window || rs.Task != c.cfg.Task ||
		rs.Budget != c.cfg.Budget || rs.SLONs != int64(c.cfg.SLO) {
		return fmt.Errorf("cluster: journal config digest mismatch (journal has m=%d W=%d task=%q budget=%g slo=%s)",
			rs.Streams, rs.Window, rs.Task, rs.Budget, time.Duration(rs.SLONs))
	}
	if len(rs.Members) == 0 {
		return fmt.Errorf("cluster: journal holds no members to take over")
	}
	rs.Epoch++ // the election is an epoch transition of its own
	c.rs, c.epoch, c.nextID = rs, rs.Epoch, rs.NextID
	for _, m := range rs.Members {
		c.ring.Add(m.ID)
		if err := c.rc.addWorker(m.ID); err != nil {
			return err
		}
	}
	c.ring.Owners(c.owners)
	for _, ctl := range rs.Ctl {
		if err := c.rc.importCtl(ctl); err != nil {
			return err
		}
	}
	c.rep.Deaths = rs.Deaths // the journaled count seeds this reign's detections
	// The elected coordinator's own journal starts from the restored image.
	if c.journaled {
		c.compactJournal()
	}
	return nil
}
