package cluster

import (
	"errors"
	"fmt"
	"time"
)

// errPrimaryDone signals an orderly primary completion (fGoodbye): the
// standby stands down without an election.
var errPrimaryDone = errors.New("cluster: primary completed")

// Standby is a warm replica of the coordinator. It follows the primary's
// journal stream over PGCP v3 frames (snapshot-offer, then every mirrored
// record) and, when the primary's lease expires — connection death or
// lease-long silence — it takes over: replay what it has, hold the rejoin
// window for the fleet, and resume driving rounds from where the journal
// ends. Decisions after the takeover continue the exact sequence the
// primary would have produced, because the replica carries the round
// clock, ring membership, demand EWMAs, and AIMD governor state.
type Standby struct {
	primary string
	name    string
	c       *Coordinator
	took    bool
}

// NewStandby binds the standby's own listen socket (workers re-home to it)
// and prepares a coordinator shell with the same configuration the primary
// runs. cfg.Source must be an identically-seeded instance of the primary's
// source: on takeover it is advanced to the resume round, never replayed.
func NewStandby(primary, name string, cfg CoordConfig) (*Standby, error) {
	c, err := NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	return &Standby{primary: primary, name: name, c: c}, nil
}

// Addr returns the standby's own listen address (what workers re-home to).
func (s *Standby) Addr() string { return s.c.Addr() }

// TookOver reports whether this standby was elected.
func (s *Standby) TookOver() bool { return s.took }

// Run follows the primary until it either completes (clean goodbye — the
// standby stands down with a zero report) or dies (the standby takes over
// and drives the cluster to completion, returning the merged report that
// spans both reigns).
func (s *Standby) Run() (Report, error) {
	rs, err := s.follow()
	if err != nil {
		s.c.teardown()
		if err == errPrimaryDone {
			return Report{}, nil
		}
		return Report{}, err
	}
	s.took = true
	return s.c.takeover(rs)
}

// follow dials the primary, registers as a standby, and applies the
// mirrored journal stream until goodbye (stand down) or death (elect).
func (s *Standby) follow() (*replicaState, error) {
	cfg := &s.c.cfg
	// The reply must be the snapshot offer — the replica image, gob as in
	// the journal's snapshot record. A failure *here* is an error, not an
	// election: this standby never had state to take over.
	rs := new(replicaState)
	l, err := dialLink(s.primary, cfg.JoinTimeout, fStandbyJoin, &StandbyJoin{Name: s.name, Addr: s.c.Addr()},
		fSnapshotOffer, rs, cfg.JoinTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: standby follow: %w", err)
	}
	defer l.close()
	// From here on, every record keeps the replica current and every
	// heartbeat feeds the lease. Lease-long silence or a dead connection
	// is primary death: take what we have to the election.
	for {
		typ, body, err := l.recv(cfg.Lease, nil)
		if err != nil {
			return rs, nil
		}
		switch typ {
		case fJournalAppend:
			if len(body) < 1 {
				return nil, fmt.Errorf("cluster: empty journal append frame")
			}
			if err := rs.apply(body[0], body[1:]); err != nil {
				return nil, err
			}
		case fHeartbeat:
		case fGoodbye:
			return nil, errPrimaryDone
		default:
			return nil, fmt.Errorf("cluster: standby got unexpected frame %d", typ)
		}
	}
}

// takeover turns a followed (or file-replayed) replica into a live
// coordinator: restore the control plane, hold the rejoin window for the
// journaled members, advance the source to the resume round, catch up
// laggard workers, and drive the round loop to completion.
func (c *Coordinator) takeover(rs *replicaState) (Report, error) {
	defer c.teardown()
	if err := c.restore(rs); err != nil {
		return c.report(), err
	}
	resume, clocks, err := c.rejoinWindow(rs)
	if err != nil {
		return c.report(), err
	}
	if err := c.advanceSource(resume); err != nil {
		return c.report(), err
	}
	// Catch up re-homed laggards in id order (the journaled members are kept
	// ascending) before rounds resume; members that never re-homed are
	// reaped by the first boundary's dead check.
	for _, m := range rs.Members {
		if from, ok := clocks[m.ID]; ok && from < resume {
			c.catchUp(c.workers[m.ID], from, resume)
		}
	}
	return c.runRounds(resume)
}

// restore rebuilds the coordinator's control plane from the replica image,
// which becomes this coordinator's own: every counter the previous reign
// journaled is already in it, so the final report spans both.
func (c *Coordinator) restore(rs *replicaState) error {
	if rs.Streams != c.cfg.Streams || rs.Window != c.cfg.Window || rs.Task != c.cfg.Task ||
		rs.Budget != c.cfg.Budget || rs.SLONs != int64(c.cfg.SLO) {
		return fmt.Errorf("cluster: journal config digest mismatch (journal has m=%d W=%d task=%q budget=%g slo=%s)",
			rs.Streams, rs.Window, rs.Task, rs.Budget, time.Duration(rs.SLONs))
	}
	if len(rs.Members) == 0 {
		return fmt.Errorf("cluster: journal holds no members to take over")
	}
	rs.Epoch++ // the election is an epoch transition of its own
	c.rs = rs
	c.epoch = rs.Epoch
	c.nextID = rs.NextID
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
	// Reset the elected coordinator's own journal to the restored image so
	// its durability chain starts from a consistent snapshot.
	if c.jr != nil {
		return c.compactJournal()
	}
	return nil
}

// rejoinWindow admits the journaled fleet back: each member either
// re-homes (new connection, same ring identity, gate state intact) or
// reconciles (an orphan handing in its observations before leaving). The
// window closes as soon as every member is accounted for — that is the
// deterministic path — or after RejoinWait, the safety net for members
// that died with the primary. It returns the resume round (max of the
// journal clock and every re-homed worker's clock: rounds the dead
// primary granted but never journaled must not be replayed at workers
// that already played them) and the per-worker clocks for catch-up.
func (c *Coordinator) rejoinWindow(rs *replicaState) (int64, map[int]int64, error) {
	seen := make(map[int]bool, len(rs.Members))
	clocks := make(map[int]int64, len(rs.Members))
	timeout := time.After(c.cfg.RejoinWait)
	for open := true; open && len(seen) < len(rs.Members); {
		select {
		case p := <-c.rejoinCh:
			c.windowRejoin(p, seen, clocks)
		case <-timeout:
			open = false
		}
	}
	resume := rs.Round
	for _, clk := range clocks {
		if clk > resume {
			resume = clk
		}
	}
	// Members that never came back died with the primary; reconciled
	// orphans left on purpose. Both get placeholder dead entries so the
	// regular reap path adopts their arcs at the first round boundary.
	for _, m := range rs.Members {
		id := m.ID
		if c.workers[id] != nil {
			continue
		}
		c.workers[id] = &wconn{id: id, dead: true}
		c.rep.Deaths++
		if _, ok := c.rep.DeadReasons[id]; !ok {
			c.rep.DeadReasons[id] = "did not re-home after takeover"
		}
		c.rc.removeWorker(id)
	}
	if len(c.live()) == 0 {
		// A cold takeover of a fully-dead fleet: nobody survived to re-home.
		// Rebuild the data plane from fresh joins up to quorum instead — the
		// journaled round clock, decision hash, and accuracy accounting carry
		// forward; the dead members' arcs are fresh-adopted at the first
		// round boundary, exactly like any other reap.
		if err := c.awaitQuorum(resume, "takeover window closed: re-join at the next round boundary"); err != nil {
			return 0, nil, fmt.Errorf("cluster: no workers re-homed after takeover: %w", err)
		}
	}
	return resume, clocks, nil
}

func (c *Coordinator) windowRejoin(p *pending, seen map[int]bool, clocks map[int]int64) {
	info, ok := c.rejoinHello(p)
	if !ok {
		return
	}
	id := info.WorkerID
	want := c.rs.memberIdx(id) >= 0
	if info.ReconcileOnly {
		if want && !seen[id] {
			seen[id] = true
			c.rep.DeadReasons[id] = "orphan: reconciled and left"
		}
		return
	}
	if !want || seen[id] {
		refuseRejoin(p, fmt.Sprintf("worker %d is not a pending member of this takeover", id))
		return
	}
	// The member had its one chance either way: a failed install below
	// leaves it to the reap, same as never arriving.
	seen[id] = true
	if _, ok := c.acceptRejoin(p, info, c.rs.Round); !ok {
		return
	}
	clocks[id] = info.Clock
	c.journalReconcile(info.Deltas)
}

// advanceSource discards the rounds the fleet already played so the
// standby's identically-seeded source is positioned at the resume round:
// the decision stream continues exactly where the journal (plus any
// granted-but-unjournaled rounds) ends.
func (c *Coordinator) advanceSource(n int64) error {
	for i := int64(0); i < n; i++ {
		if _, err := c.src.NextRoundSparse(); err != nil {
			return fmt.Errorf("cluster: advancing source to resume round %d: %w", n, err)
		}
	}
	return nil
}

// TakeoverFromJournal elects a coordinator directly from a journal file —
// the cold-standby path (`pgcoord -takeover <journal>`): replay the log
// (tolerating a torn tail), then run the same takeover protocol a warm
// standby runs.
func (c *Coordinator) TakeoverFromJournal(path string) (Report, error) {
	rs, err := replayJournal(path)
	if err != nil {
		c.teardown()
		return c.report(), err
	}
	return c.takeover(rs)
}
