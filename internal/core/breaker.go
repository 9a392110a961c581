package core

import "fmt"

// BreakerState is a per-stream circuit breaker state.
type BreakerState uint8

const (
	// BreakerClosed: the stream is healthy and fully participates.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the stream is quarantined out of Decide — its packets
	// are excluded from selection (and its budget share therefore flows to
	// the healthy streams through the knapsack).
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; the stream competes again and
	// its next decode outcome decides between closing and reopening.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", uint8(s))
	}
}

// BreakerConfig parameterizes the gate's per-stream circuit breakers.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive decode failures that
	// opens a closed breaker (default 3).
	FailureThreshold int
	// GapThreshold opens a closed breaker after this many consecutive
	// rounds without a packet from the stream — a stalled camera must
	// re-prove itself through a half-open probe before it is trusted
	// again (default 50; negative disables gap detection).
	GapThreshold int
	// Cooldown is the number of rounds an open breaker waits before
	// half-opening (default 25).
	Cooldown int
	// MaxCooldown caps the exponential reopen backoff: every failed
	// half-open probe doubles the next cooldown up to this bound
	// (default 8×Cooldown).
	MaxCooldown int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.GapThreshold == 0 {
		c.GapThreshold = 50
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 25
	}
	if c.MaxCooldown <= 0 {
		c.MaxCooldown = 8 * c.Cooldown
	}
	return c
}

// BreakerSnapshot is one stream's breaker state and lifetime counters.
type BreakerSnapshot struct {
	State BreakerState
	// ConsecutiveFails is the current run of decode failures.
	ConsecutiveFails int
	// Opens counts closed→open transitions (failures and gaps).
	Opens int
	// GapOpens counts the subset of Opens caused by feedback gaps.
	GapOpens int
	// Reopens counts half-open probes that failed (open again, with a
	// doubled cooldown).
	Reopens int
	// Recoveries counts half-open probes that succeeded (closed again).
	Recoveries int
	// QuarantinedRounds is the total rounds spent open.
	QuarantinedRounds int64
}

// breaker is one stream's state machine, advanced lazily: instead of being
// ticked every round, it records the last round it was brought current to
// (asOf) and the round of its most recent packet (lastPkt), and fast-forwards
// through the intervening packet-free rounds in closed form when it is next
// touched. The round-by-round gap counter of the eager formulation is
// implicit: gap(r) = r − lastPkt.
type breaker struct {
	state    BreakerState
	fails    int   // consecutive decode failures
	cooldown int   // current open-state cooldown length
	openLeft int   // rounds left before open → half-open
	lastPkt  int64 // round of the stream's most recent packet (0 = never)
	asOf     int64 // breaker state is current through this round
	snapshot BreakerSnapshot
}

// breakerSet is the gate's per-stream breaker array. It has no lock of its
// own: Decide advances it and Feedback folds outcomes in, both under the
// gate's mutex.
//
// Per-round cost is O(streams with packets), not O(m): only streams that
// deliver a packet (and streams whose decode outcomes arrive) are touched,
// and each touch replays the stream's packet-free span in closed form —
// round-for-round identical to ticking every breaker every round, which the
// equivalence test enforces against the reference gate's dense shim
// (reference_test.go).
type breakerSet struct {
	cfg BreakerConfig

	bs    []breaker
	round int64   // rounds begun so far
	quar  []bool  // quarantine mask; entries listed in quarList are live
	qlist []int32 // streams whose quar entry was set this round
}

func newBreakerSet(streams int, cfg BreakerConfig) *breakerSet {
	return &breakerSet{
		cfg:  cfg.withDefaults(),
		bs:   make([]breaker, streams),
		quar: make([]bool, streams),
	}
}

// fastForward brings b current through round `to`, simulating the rounds
// (b.asOf, to] in which the stream delivered no packet. Equivalent to the
// eager per-round walk: while closed, the gap reaches GapThreshold+1 at
// round lastPkt+GapThreshold+1 and the breaker opens there (never earlier
// than asOf+1 — a breaker closed by a late probe outcome with an already
// stale lastPkt gap-opens on the very next packet-free round, as the eager
// walk would); while open, each round counts quarantine time and burns one
// cooldown round until the breaker half-opens; half-open is inert without a
// packet or an outcome.
func (s *breakerSet) fastForward(b *breaker, to int64) {
	if to <= b.asOf {
		return
	}
	if b.state == BreakerClosed && s.cfg.GapThreshold >= 0 {
		r0 := b.lastPkt + int64(s.cfg.GapThreshold) + 1
		if r0 <= b.asOf {
			r0 = b.asOf + 1
		}
		if r0 <= to {
			s.open(b, true)
			s.runOpen(b, to-r0+1)
			b.asOf = to
			return
		}
	}
	if b.state == BreakerOpen {
		s.runOpen(b, to-b.asOf)
	}
	b.asOf = to
}

// runOpen burns k packet-free open rounds: each counts quarantine time and
// one cooldown round; exhausting the cooldown half-opens the breaker and
// any remaining rounds are inert.
func (s *breakerSet) runOpen(b *breaker, k int64) {
	n := int64(b.openLeft)
	if k < n {
		n = k
	}
	b.snapshot.QuarantinedRounds += n
	b.openLeft -= int(n)
	if b.openLeft <= 0 {
		b.state = BreakerHalfOpen
	}
}

// packetRound folds a packet arrival at round r into b: the gap resets, and
// an open breaker still counts the round against its cooldown (half-opening
// exactly when it expires, in which case the packet participates this round).
// Returns whether the stream is quarantined this round.
func (s *breakerSet) packetRound(b *breaker, r int64) bool {
	s.fastForward(b, r-1)
	b.lastPkt = r
	b.asOf = r
	if b.state == BreakerOpen {
		b.snapshot.QuarantinedRounds++
		b.openLeft--
		if b.openLeft <= 0 {
			b.state = BreakerHalfOpen
			return false
		}
		return true
	}
	return false
}

// beginRoundSparse starts a new round and advances the breakers of exactly
// the streams that delivered a packet (nonIdle, ascending stream IDs). It
// returns the quarantine mask: quar[i] is true when stream i's packet must
// be excluded from this round's selection. Only entries for nonIdle streams
// are maintained — idle streams have no packet to quarantine. The mask is
// scratch owned by the set, valid until the next round begins.
func (s *breakerSet) beginRoundSparse(nonIdle []int32) []bool {
	s.round++
	for _, i := range s.qlist {
		s.quar[i] = false
	}
	s.qlist = s.qlist[:0]
	for _, i := range nonIdle {
		if s.packetRound(&s.bs[i], s.round) {
			s.quar[i] = true
			s.qlist = append(s.qlist, i)
		}
	}
	return s.quar
}

// open transitions a breaker to open and starts its cooldown. gapCaused
// marks feedback-gap opens in the counters.
func (s *breakerSet) open(b *breaker, gapCaused bool) {
	if b.cooldown == 0 {
		b.cooldown = s.cfg.Cooldown
	}
	b.state = BreakerOpen
	b.openLeft = b.cooldown
	b.fails = 0
	b.snapshot.Opens++
	if gapCaused {
		b.snapshot.GapOpens++
	}
}

// outcome folds one decode outcome for stream i into its breaker.
func (s *breakerSet) outcome(i int, failed bool) {
	if i < 0 || i >= len(s.bs) {
		return
	}
	b := &s.bs[i]
	s.fastForward(b, s.round)
	if failed {
		switch b.state {
		case BreakerHalfOpen:
			// Failed probe: reopen with doubled cooldown.
			b.cooldown *= 2
			if b.cooldown > s.cfg.MaxCooldown {
				b.cooldown = s.cfg.MaxCooldown
			}
			s.open(b, false)
			b.snapshot.Reopens++
		case BreakerClosed:
			b.fails++
			if b.fails >= s.cfg.FailureThreshold {
				s.open(b, false)
			}
		}
		b.snapshot.ConsecutiveFails = b.fails
		return
	}
	// Success.
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerClosed
		b.cooldown = 0
		b.snapshot.Recoveries++
	case BreakerClosed:
		b.fails = 0
	}
	b.snapshot.ConsecutiveFails = b.fails
}

// snapshots returns every stream's breaker snapshot, fast-forwarding each
// breaker to the current round first so lazily deferred quarantine rounds
// and gap-opens are reflected. O(m); diagnostic path only.
func (s *breakerSet) snapshots() []BreakerSnapshot {
	out := make([]BreakerSnapshot, len(s.bs))
	for i := range s.bs {
		b := &s.bs[i]
		s.fastForward(b, s.round)
		out[i] = b.snapshot
		out[i].State = b.state
		out[i].ConsecutiveFails = b.fails
	}
	return out
}
