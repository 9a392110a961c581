package bandit

import (
	"fmt"
	"math"
)

// StreamState is one stream's portable slice of a TemporalEstimator: the
// window entries (which of the last w rounds selected the stream, with their
// rewards) plus the last-selection clock. It is the unit of state transfer
// when a stream migrates between gates in a cluster.
//
// The representation is canonical — entries ascend by round and carry
// absolute 1-based round numbers — so two estimators that agree on the
// stream's history export byte-identical states regardless of the order in
// which other streams were pushed around it. Rebuilding the aggregates from
// an import replays the additions in round order; because the gate's rewards
// are exactly representable (0 or 1), the rebuilt rewardSum is bit-identical
// to the donor's running total.
type StreamState struct {
	// Rounds holds the absolute rounds within the window (t-w, t] in which
	// the stream was selected, strictly ascending. Rewards is aligned.
	Rounds  []int64
	Rewards []float64
	// LastSel is the 1-based round of the stream's most recent selection
	// ever (0 = never). It may predate the window.
	LastSel int64
}

// slotRound returns the absolute round currently mapped to ring slot s, or 0
// if no round in the live window (t-w, t] maps there. Round r lives in slot
// (r-1) mod w, so each live slot holds exactly one round.
func (e *TemporalEstimator) slotRound(s int) int64 {
	if e.t == 0 {
		return 0
	}
	// The unique r in [t-w+1, t] with (r-1) mod w == s is r = t - d where
	// d = (t-1-s) mod w.
	d := (e.t - 1 - int64(s)) % int64(e.w)
	if d < 0 {
		d += int64(e.w)
	}
	r := e.t - d
	if r < 1 {
		return 0
	}
	return r
}

// ExportStream extracts stream i's window entries and selection clock in
// canonical (round-ascending) order. The estimator is unchanged.
func (e *TemporalEstimator) ExportStream(i int) (StreamState, error) {
	if i < 0 || i >= e.m {
		return StreamState{}, fmt.Errorf("bandit: export stream %d out of range [0,%d)", i, e.m)
	}
	st := StreamState{LastSel: e.lastSel[i]}
	lo := e.t - int64(e.w)
	if lo < 0 {
		lo = 0
	}
	for r := lo + 1; r <= e.t; r++ {
		s := int((r - 1) % int64(e.w))
		for k, id := range e.slotIDs[s] {
			if int(id) == i {
				st.Rounds = append(st.Rounds, r)
				st.Rewards = append(st.Rewards, e.slotReward[s][k])
				break
			}
		}
	}
	return st, nil
}

// ImportStream installs an exported state for stream i, which must currently
// be empty (freshly reset or never selected): the estimator clock t is NOT
// changed, so the caller must have aligned it (AdvanceTo) with the donor's
// clock before importing. Entries are folded in ascending round order,
// reproducing the donor's aggregate arithmetic exactly.
func (e *TemporalEstimator) ImportStream(i int, st StreamState) error {
	if i < 0 || i >= e.m {
		return fmt.Errorf("bandit: import stream %d out of range [0,%d)", i, e.m)
	}
	if e.selCount[i] != 0 || e.rewardSum[i] != 0 || e.lastSel[i] != 0 {
		return fmt.Errorf("bandit: import into non-empty stream %d", i)
	}
	if err := st.Validate(e.t, e.w); err != nil {
		return err
	}
	for k, r := range st.Rounds {
		s := int((r - 1) % int64(e.w))
		e.slotIDs[s] = append(e.slotIDs[s], int32(i))
		e.slotReward[s] = append(e.slotReward[s], st.Rewards[k])
		e.selCount[i]++
		e.rewardSum[i] += st.Rewards[k]
	}
	e.lastSel[i] = st.LastSel
	return nil
}

// Validate checks st against an estimator at clock t with window w: aligned
// rounds and finite rewards, rounds strictly ascending inside (t-w, t], and a
// last selection neither ahead of the clock nor off the newest entry.
func (st StreamState) Validate(t int64, w int) error {
	if len(st.Rounds) != len(st.Rewards) {
		return fmt.Errorf("bandit: import: %d rounds with %d rewards", len(st.Rounds), len(st.Rewards))
	}
	if st.LastSel < 0 || st.LastSel > t {
		return fmt.Errorf("bandit: import: lastSel %d outside clock [0,%d]", st.LastSel, t)
	}
	lo := t - int64(w)
	prev := int64(0)
	for k, r := range st.Rounds {
		if r <= lo || r > t || r < 1 {
			return fmt.Errorf("bandit: import: round %d outside window (%d,%d]", r, lo, t)
		}
		if r <= prev {
			return fmt.Errorf("bandit: import: rounds not strictly ascending at %d", r)
		}
		prev = r
		if x := st.Rewards[k]; math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("bandit: import: round %d reward %v", r, x)
		}
	}
	if n := len(st.Rounds); n > 0 && st.LastSel != st.Rounds[n-1] {
		return fmt.Errorf("bandit: import: lastSel %d disagrees with newest entry %d", st.LastSel, st.Rounds[n-1])
	}
	return nil
}

// ValidateStream checks st against this estimator's clock and window, as
// ImportStream does, without touching any stream.
func (e *TemporalEstimator) ValidateStream(st StreamState) error { return st.Validate(e.t, e.w) }

// RemoveStream erases stream i's window entries and aggregates, returning it
// to the never-selected state. The estimator clock is unchanged. Used when a
// stream migrates away from this gate.
func (e *TemporalEstimator) RemoveStream(i int) error {
	if i < 0 || i >= e.m {
		return fmt.Errorf("bandit: remove stream %d out of range [0,%d)", i, e.m)
	}
	for s := 0; s < e.w; s++ {
		ids, rew := e.slotIDs[s], e.slotReward[s]
		out := 0
		for k, id := range ids {
			if int(id) == i {
				continue
			}
			ids[out], rew[out] = ids[k], rew[k]
			out++
		}
		e.slotIDs[s], e.slotReward[s] = ids[:out], rew[:out]
	}
	e.rewardSum[i] = 0
	e.selCount[i] = 0
	e.lastSel[i] = 0
	return nil
}

// AdvanceTo fast-forwards the estimator clock to absolute round T without
// observing any selections, as if T-t empty rounds had been pushed: slots
// whose rounds fall out of the new window (T-w, T] are evicted and the write
// cursor is realigned. A gate joining a cluster mid-run uses this to align a
// fresh estimator with the cluster clock before importing stream states.
func (e *TemporalEstimator) AdvanceTo(T int64) error {
	if T < e.t {
		return fmt.Errorf("bandit: cannot advance clock backward from %d to %d", e.t, T)
	}
	if T == e.t {
		return nil
	}
	for s := 0; s < e.w; s++ {
		r := e.slotRound(s)
		if r == 0 || len(e.slotIDs[s]) == 0 {
			continue
		}
		if r <= T-int64(e.w) {
			for k, id := range e.slotIDs[s] {
				e.selCount[id]--
				e.rewardSum[id] -= e.slotReward[s][k]
			}
			e.slotIDs[s] = e.slotIDs[s][:0]
			e.slotReward[s] = e.slotReward[s][:0]
		}
	}
	e.pos = int(T % int64(e.w))
	e.t = T
	return nil
}
