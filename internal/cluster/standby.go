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
// and prepares a coordinator with the primary's configuration. cfg.Source
// must be an identically-seeded instance of the primary's source: a takeover
// advances it to the resume round.
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
	cfg := &s.c.core.cfg
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

func (c *Coordinator) takeover(rs *replicaState) (Report, error) {
	err := c.run(c.core.takeover(time.Now(), rs, nil))
	return c.core.report(), err
}

// TakeoverFromJournal elects a coordinator directly from a journal file —
// the cold-standby path (`pgcoord -takeover <journal>`): replay the log
// (tolerating a torn tail), then run the same takeover protocol a warm
// standby runs.
func (c *Coordinator) TakeoverFromJournal(path string) (Report, error) {
	rs, err := replayJournal(path)
	if err != nil {
		c.teardown()
		return c.core.report(), err
	}
	return c.takeover(rs)
}
