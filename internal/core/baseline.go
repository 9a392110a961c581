package core

import (
	"fmt"
	"slices"

	"packetgame/internal/codec"
	"packetgame/internal/decode"
	"packetgame/internal/knapsack"
)

// Decider is the gating protocol shared by the PacketGame Gate, the baseline
// policies and every wrapper around them: DecideSparseAppend selects packets
// from one round and appends their stream ids to dst, and FeedbackFull
// reports the decode outcome of each selection, oldest round first (failed
// and deferred may be nil). A Decider rejects a round whose width is not its
// stream count or that fails r.Validate before touching any state.
type Decider interface {
	DecideSparseAppend(r *codec.Round, dst []int) ([]int, error)
	FeedbackFull(selected []int, necessary, failed, deferred []bool) error
}

// ValueFunc assigns a selection value to each packet of a round, parallel to
// r.IDs. It is how oracle baselines peek at ground truth.
type ValueFunc func(r *codec.Round) []float64

// BaselineGate wraps a knapsack selector into the Decider protocol with
// dependency-aware costs but externally supplied values. With a nil
// ValueFunc every active packet has value 1, which turns value-agnostic
// selectors (round-robin, random) into the §3.2 baselines; with an oracle
// ValueFunc and the greedy selector it is the "Optimal" policy of Figs 4/9.
// A round costs O(active).
type BaselineGate struct {
	selector knapsack.Selector
	tracker  *decode.MultiTracker
	values   ValueFunc
	budget   float64
	cands    []knapsack.Candidate
	costs    []float64 // parallel to the round's ids
	picked   []bool    // parallel to the round's ids
	stats    Stats
}

// NewBaselineGate builds a baseline policy over m streams with a fixed
// per-round budget.
func NewBaselineGate(m int, cm decode.CostModel, sel knapsack.Selector, values ValueFunc, budget float64) *BaselineGate {
	return &BaselineGate{
		selector: sel,
		tracker:  decode.NewMultiTracker(m, cm),
		values:   values,
		budget:   budget,
	}
}

// Budget returns the per-round budget.
func (b *BaselineGate) Budget() float64 { return b.budget }

// Stats returns lifetime counters.
func (b *BaselineGate) Stats() Stats { return b.stats }

// DecideSparseAppend implements Decider.
func (b *BaselineGate) DecideSparseAppend(r *codec.Round, dst []int) ([]int, error) {
	if r.M != b.tracker.Len() {
		return nil, fmt.Errorf("core: round width %d for %d streams", r.M, b.tracker.Len())
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	var vals []float64
	if b.values != nil {
		if vals = b.values(r); len(vals) != r.Len() {
			return nil, fmt.Errorf("core: %d values for a round of %d packets", len(vals), r.Len())
		}
	}
	costs, err := b.tracker.CostsRound(b.costs[:0], r)
	if err != nil {
		return nil, err
	}
	b.costs = costs
	b.cands = b.cands[:0]
	for k, id := range r.IDs {
		v := 1.0
		if vals != nil {
			v = vals[k]
		}
		b.cands = append(b.cands, knapsack.Candidate{Stream: id, Value: v, Cost: costs[k]})
	}
	n := len(dst)
	dst = b.selector.Select(dst, b.cands, b.budget)
	b.picked = slices.Grow(b.picked[:0], r.Len())[:r.Len()]
	clear(b.picked)
	for _, i := range dst[n:] {
		k := r.Find(int32(i))
		b.picked[k] = true
		b.stats.Decoded++
		b.stats.CostSpent += costs[k]
	}
	if err := b.tracker.CommitRound(r, b.picked); err != nil {
		return nil, err
	}
	b.stats.Rounds++
	b.stats.Packets += int64(r.Len())
	return dst, nil
}

// FeedbackFull implements Decider. Baselines ignore feedback.
func (b *BaselineGate) FeedbackFull([]int, []bool, []bool, []bool) error { return nil }
