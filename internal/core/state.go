package core

import (
	"fmt"

	"packetgame/internal/bandit"
	"packetgame/internal/decode"
	"packetgame/internal/predictor"
)

// BreakerStreamState is one stream's portable circuit-breaker phase: the
// state machine fields plus the lifetime counters. The breaker is brought
// current (fast-forwarded) to the gate clock before export, so asOf is
// implicitly the exporting gate's round and is not part of the state.
type BreakerStreamState struct {
	State    BreakerState
	Fails    int
	Cooldown int
	OpenLeft int
	LastPkt  int64
	Snapshot BreakerSnapshot
}

// StreamState is one stream's complete portable gate state: everything a
// peer gate needs to continue the stream's decision history bit-identically.
// It is the unit of state transfer when a stream migrates between workers in
// a gating cluster.
type StreamState struct {
	// Round is the exporting gate's completed-round clock. An import
	// requires the importing gate's clock to match.
	Round int64
	// Temporal is the UCB estimator's window slice for the stream.
	Temporal bandit.StreamState
	// Row is the predictor feature-store row (windows, epoch, cursors). A
	// gate without a predictor keeps no store: it exports the fresh row
	// (predictor.FreshRow) and drops an imported row once it validates.
	Row predictor.RowState
	// Tracker is the dependency-cost tracker state.
	Tracker decode.TrackerState
	// Breaker is the circuit-breaker phase; HasBreaker records whether the
	// exporting gate had breakers armed.
	HasBreaker bool
	Breaker    BreakerStreamState
	// WarmTarget, when non-zero, marks a stream still in the degraded
	// "temporal-only until warm" mode after a fresh (state-lost) import:
	// the stream scores without the contextual predictor until its feature
	// store has absorbed WarmTarget pushes.
	WarmTarget int64
}

func (s *breakerSet) exportStream(i int) BreakerStreamState {
	b := &s.bs[i]
	s.fastForward(b, s.round)
	return BreakerStreamState{
		State:    b.state,
		Fails:    b.fails,
		Cooldown: b.cooldown,
		OpenLeft: b.openLeft,
		LastPkt:  b.lastPkt,
		Snapshot: b.snapshot,
	}
}

// Validate refuses a breaker phase no breaker could be in: an unknown state,
// or a negative counter, cooldown or packet clock.
func (st BreakerStreamState) Validate() error {
	sn := st.Snapshot
	if st.State > BreakerHalfOpen || min(st.LastPkt, sn.QuarantinedRounds) < 0 ||
		min(st.Fails, st.Cooldown, st.OpenLeft, sn.ConsecutiveFails, sn.Opens, sn.GapOpens, sn.Reopens, sn.Recoveries) < 0 {
		return fmt.Errorf("core: malformed breaker state %+v", st)
	}
	return nil
}

func (s *breakerSet) importStream(i int, st BreakerStreamState) {
	s.bs[i] = breaker{
		state:    st.State,
		fails:    st.Fails,
		cooldown: st.Cooldown,
		openLeft: st.OpenLeft,
		lastPkt:  st.LastPkt,
		asOf:     s.round,
		snapshot: st.Snapshot,
	}
}

// resetStream clears stream i's breaker. With fresh set, the packet clock is
// pinned to the current round so a state-lost stream does not instantly
// gap-open against a zero lastPkt it never had a chance to refresh.
func (s *breakerSet) resetStream(i int, fresh bool) {
	s.bs[i] = breaker{}
	if fresh {
		s.bs[i].lastPkt = s.round
		s.bs[i].asOf = s.round
	}
}

// ClockRound returns the gate's completed-round clock (rounds decided so
// far). Stream state export/import is only meaningful between rounds, with
// no round pending feedback.
func (g *Gate) ClockRound() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats.Rounds
}

// quiescent verifies no round is awaiting feedback — the only window in
// which per-stream state is coherent enough to move.
func (g *Gate) quiescent(op string) error {
	if n := len(g.pending); n != 0 {
		return fmt.Errorf("core: %s with %d rounds pending feedback", op, n)
	}
	return nil
}

// ExportStream extracts stream i's complete gate state (estimator window,
// feature row, dependency tracker, breaker phase, warm-up mode). The gate is
// unchanged. It must be called between rounds (no pending feedback).
func (g *Gate) ExportStream(i int) (StreamState, error) {
	if i < 0 || i >= g.cfg.Streams {
		return StreamState{}, fmt.Errorf("core: export stream %d out of range [0,%d)", i, g.cfg.Streams)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.quiescent("ExportStream"); err != nil {
		return StreamState{}, err
	}
	st := StreamState{Round: g.stats.Rounds, Tracker: g.trackers.Stream(i).Export()}
	var err error
	if g.est != nil {
		if st.Temporal, err = g.est.ExportStream(i); err != nil {
			return StreamState{}, err
		}
	}
	if g.store == nil {
		st.Row = predictor.FreshRow(g.cfg.Window)
	} else if st.Row, err = g.store.ExportRow(i); err != nil {
		return StreamState{}, err
	}
	if g.breakers != nil {
		st.HasBreaker = true
		st.Breaker = g.breakers.exportStream(i)
	}
	if g.warmTarget != nil {
		st.WarmTarget = g.warmTarget[i]
	}
	return st, nil
}

// RetireStream erases stream i's per-stream state, returning its slot to the
// fresh (never-seen) condition: the stream has migrated away and this gate
// will no longer receive its packets. Must be called between rounds.
func (g *Gate) RetireStream(i int) error {
	if i < 0 || i >= g.cfg.Streams {
		return fmt.Errorf("core: retire stream %d out of range [0,%d)", i, g.cfg.Streams)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.quiescent("RetireStream"); err != nil {
		return err
	}
	return g.resetStream(i, false)
}

// resetStream clears stream i's state.
func (g *Gate) resetStream(i int, fresh bool) error {
	if g.est != nil {
		if err := g.est.RemoveStream(i); err != nil {
			return err
		}
	}
	if g.store != nil {
		if err := g.store.ResetRow(i); err != nil {
			return err
		}
	}
	g.trackers.Stream(i).Reset()
	if g.breakers != nil {
		g.breakers.resetStream(i, fresh)
	}
	if g.cacheValid != nil {
		g.cacheValid[i] = false
	}
	if g.warmTarget != nil {
		g.warmTarget[i] = 0
	}
	return nil
}

// ImportStream installs an exported state into stream i's slot, which is
// reset first; a state that fails validation is refused before the reset.
// The exporting gate's clock must match this gate's clock: the estimator
// window rounds, breaker phase, and feature epochs are all round-anchored.
// After a successful import the stream's decisions continue bit-identically
// to a gate that had owned it all along.
func (g *Gate) ImportStream(i int, st StreamState) error {
	if i < 0 || i >= g.cfg.Streams {
		return fmt.Errorf("core: import stream %d out of range [0,%d)", i, g.cfg.Streams)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.quiescent("ImportStream"); err != nil {
		return err
	}
	if st.Round != g.stats.Rounds {
		return fmt.Errorf("core: import stream %d at round %d into gate at round %d", i, st.Round, g.stats.Rounds)
	}
	// A storeless gate drops the row, but only one a store would take.
	if err := st.Row.Validate(g.cfg.Window); err != nil {
		return err
	}
	if err := st.Tracker.Validate(); err != nil {
		return err
	}
	if err := st.Breaker.Validate(); err != nil {
		return err
	}
	if g.est != nil {
		if err := g.est.ValidateStream(st.Temporal); err != nil {
			return err
		}
	}
	if err := g.resetStream(i, false); err != nil {
		return err
	}
	if g.est != nil {
		if err := g.est.ImportStream(i, st.Temporal); err != nil {
			return err
		}
	}
	if g.store != nil {
		if err := g.store.ImportRow(i, st.Row); err != nil {
			return err
		}
	}
	if err := g.trackers.Stream(i).Import(st.Tracker); err != nil {
		return err
	}
	if g.breakers != nil && st.HasBreaker {
		g.breakers.importStream(i, st.Breaker)
	}
	if st.WarmTarget != 0 {
		g.ensureWarmTargets()
		g.warmTarget[i] = st.WarmTarget
	}
	return nil
}

// ImportFreshStream adopts stream i with no transferred state — its donor
// crashed or the state-transfer was dropped. The slot is reset, the breaker
// packet clock is pinned to the current round (no instant gap-open), and the
// stream enters the degraded temporal-only mode until its feature windows
// refill (Window pushes): the contextual predictor never scores cold
// windows, and the fresh estimator honestly reports "no evidence" (zero
// exploitation, full exploration bonus) rather than fabricating feedback.
func (g *Gate) ImportFreshStream(i int) error {
	if i < 0 || i >= g.cfg.Streams {
		return fmt.Errorf("core: fresh-import stream %d out of range [0,%d)", i, g.cfg.Streams)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.quiescent("ImportFreshStream"); err != nil {
		return err
	}
	if err := g.resetStream(i, true); err != nil {
		return err
	}
	if g.cfg.Predictor != nil {
		g.ensureWarmTargets()
		g.warmTarget[i] = int64(g.cfg.Window)
	}
	return nil
}

func (g *Gate) ensureWarmTargets() {
	if g.warmTarget == nil {
		g.warmTarget = make([]int64, g.cfg.Streams)
	}
}

// Warming reports whether stream i is in the post-fresh-import degraded
// mode (scored temporal-only until its feature windows refill).
func (g *Gate) Warming(i int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.warmTarget != nil && i >= 0 && i < g.cfg.Streams && g.warmTarget[i] > 0
}

// AdvanceTo fast-forwards a freshly built gate's clock to absolute round T,
// as if T empty rounds had been decided and acked: the estimator clock, the
// breaker round, and the round counter all land on T. A worker joining a
// cluster mid-run uses this to align with the cluster clock before importing
// stream states. Only valid on a gate that has decided no rounds.
func (g *Gate) AdvanceTo(T int64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.quiescent("AdvanceTo"); err != nil {
		return err
	}
	if g.stats.Rounds != 0 {
		return fmt.Errorf("core: AdvanceTo on a gate that already decided %d rounds", g.stats.Rounds)
	}
	if T < 0 {
		return fmt.Errorf("core: AdvanceTo(%d): negative round", T)
	}
	if g.est != nil {
		if err := g.est.AdvanceTo(T); err != nil {
			return err
		}
	}
	if g.breakers != nil {
		g.breakers.round = T
	}
	g.stats.Rounds = T
	return nil
}
