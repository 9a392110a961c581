package core

import (
	"fmt"

	"packetgame/internal/codec"
	"packetgame/internal/decode"
	"packetgame/internal/knapsack"
)

// Decider is the round-based gating protocol shared by the PacketGame Gate
// and the baseline policies: Decide selects packets, Feedback reports the
// redundancy outcome of the decoded ones.
type Decider interface {
	Decide(pkts []*codec.Packet) ([]int, error)
	Feedback(selected []int, necessary []bool) error
}

// ValueFunc assigns a selection value to each stream's current packet.
// It is how oracle baselines peek at ground truth.
type ValueFunc func(pkts []*codec.Packet) []float64

// BaselineGate wraps a knapsack selector into the Decider protocol with
// dependency-aware costs but externally supplied values. With a nil
// ValueFunc every active packet has value 1, which turns value-agnostic
// selectors (round-robin, random) into the §3.2 baselines; with an oracle
// ValueFunc and the greedy selector it is the "Optimal" policy of Figs 4/9.
type BaselineGate struct {
	selector knapsack.Selector
	tracker  *decode.MultiTracker
	values   ValueFunc
	budget   float64
	cands    []knapsack.Candidate
	selected []bool
	costs    []float64
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
		selected: make([]bool, m),
	}
}

// Budget returns the per-round budget.
func (b *BaselineGate) Budget() float64 { return b.budget }

// Stats returns lifetime counters.
func (b *BaselineGate) Stats() Stats { return b.stats }

// Decide implements Decider.
func (b *BaselineGate) Decide(pkts []*codec.Packet) ([]int, error) {
	if len(pkts) != len(b.selected) {
		return nil, fmt.Errorf("core: %d packets for %d streams", len(pkts), len(b.selected))
	}
	costs, err := b.tracker.CostsAppend(b.costs[:0], pkts)
	b.costs = costs
	if err != nil {
		return nil, err
	}
	var vals []float64
	if b.values != nil {
		vals = b.values(pkts)
	}
	b.cands = b.cands[:0]
	for i, p := range pkts {
		if p == nil {
			continue
		}
		b.stats.Packets++
		v := 1.0
		if vals != nil {
			v = vals[i]
		}
		b.cands = append(b.cands, knapsack.Candidate{Stream: int32(i), Value: v, Cost: costs[i]})
	}
	sel := b.selector.Select(nil, b.cands, b.budget)
	for i := range b.selected {
		b.selected[i] = false
	}
	for _, i := range sel {
		b.selected[i] = true
		b.stats.Decoded++
		b.stats.CostSpent += costs[i]
	}
	if err := b.tracker.Commit(pkts, b.selected); err != nil {
		return nil, err
	}
	b.stats.Rounds++
	return sel, nil
}

// Feedback implements Decider. Baselines ignore feedback.
func (b *BaselineGate) Feedback(selected []int, necessary []bool) error { return nil }
