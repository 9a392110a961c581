// Package knapsack implements the combinatorial optimizer of PacketGame
// (§5.3) and the schedulers it is compared against: greedy selection by
// confidence/cost ratio (with the paper's 1−c/B approximation guarantee for
// approximately fractional costs), an exact dynamic-programming oracle, a
// fractional upper bound, round-robin, and random selection.
//
// Every ratio order — Greedy, GreedyPrefix, Tiered, Ranked, FractionalOPT —
// comes from one non-comparison ordering kernel (order.go): candidates are
// keyed by the bit image of their ratio and byte-radix sorted, linear in
// the number of candidates, under one ordering contract (ratio descending,
// zero cost first, id ascending on exact ties; NaN and negative-cost
// candidates never listed). The selectors differ only in how they list
// candidates and walk the result, which is what keeps their selections
// bit-identical to one another.
package knapsack

import (
	"math"
	"math/rand"
)

// Item is one selectable packet: its gating confidence (value) and its
// dependency-inclusive decode cost.
type Item struct {
	Value float64
	Cost  float64
}

// Selector chooses a subset of items whose total cost fits the budget.
// Implementations may keep state across rounds (e.g. round-robin's cursor).
type Selector interface {
	// Name identifies the policy in reports.
	Name() string
	// Select returns the indices of the chosen items, in selection order.
	Select(items []Item, budget float64) []int
}

// SelectAppender is an optional Selector extension for hot loops: the chosen
// indices are appended to dst (which may be nil) so a caller that recycles
// its selection buffer pays no allocation per round.
type SelectAppender interface {
	SelectAppend(dst []int, items []Item, budget float64) []int
}

// Candidate is one sparse knapsack candidate: the stream it stands for plus
// its gating value and dependency-inclusive cost. It is the compact form of
// a dense []Item slot — an Item array is indexed by stream, a Candidate
// carries its stream with it.
type Candidate struct {
	Stream int32
	Value  float64
	Cost   float64
}

// SparseSelector is an optional Selector extension for sparse fleets: the
// candidate list names only the streams in play this round, in any order
// with each stream at most once, so the selector touches O(active) state
// instead of an O(m) dense item array. Selected stream ids are appended to
// dst in selection order. Ties break on the stream id itself, never on list
// position, so the selection is exactly the dense Greedy's over the
// equivalent item array however the list was assembled.
type SparseSelector interface {
	SelectSparseAppend(dst []int, cands []Candidate, budget float64) []int
}

// TotalValue sums the values of the selected indices.
func TotalValue(items []Item, sel []int) float64 {
	var v float64
	for _, i := range sel {
		v += items[i].Value
	}
	return v
}

// TotalCost sums the costs of the selected indices.
func TotalCost(items []Item, sel []int) float64 {
	var c float64
	for _, i := range sel {
		c += items[i].Cost
	}
	return c
}

// MaxCost returns the largest single-item cost (the c in 1−c/B).
func MaxCost(items []Item) float64 {
	var m float64
	for _, it := range items {
		if it.Cost > m {
			m = it.Cost
		}
	}
	return m
}

// Greedy is the paper's optimizer: items are ranked by value/cost ratio and
// taken while the budget lasts; remaining budget is then filled with any
// later items that still fit ("decode as many as possible packets that the
// current prioritized packet refers to" generalizes to this fill pass once
// reference costs are folded into Item.Cost by the dependency tracker).
//
// For approximately fractional costs it guarantees value ≥ (1−c/B)·OPT
// (Lemma 1). A round costs one scan of the items plus the ordering kernel's
// linear radix sort of the positive-value candidates — no comparison sort.
type Greedy struct {
	ord order // kernel scratch, reused across rounds
}

// Name implements Selector.
func (*Greedy) Name() string { return "greedy" }

// Select implements Selector.
func (g *Greedy) Select(items []Item, budget float64) []int {
	return g.SelectAppend(nil, items, budget)
}

// SelectAppend implements SelectAppender: selection indices are appended to
// dst; in steady state nothing is allocated.
func (g *Greedy) SelectAppend(dst []int, items []Item, budget float64) []int {
	remaining := budget
	for _, e := range g.ord.sortItems(items) {
		if c := items[e.id].Cost; c <= remaining {
			dst = append(dst, int(e.id))
			remaining -= c
		}
	}
	return dst
}

// SelectSparseAppend implements SparseSelector: the compact-candidate form
// of SelectAppend. The appended stream ids match SelectAppend's on the
// equivalent dense array (zero slots omitted) in selection order, whatever
// order cands is in.
func (g *Greedy) SelectSparseAppend(dst []int, cands []Candidate, budget float64) []int {
	o := &g.ord
	o.begin()
	for k, c := range cands {
		o.list(int(c.Stream), k, c.Value, c.Cost)
	}
	remaining := budget
	for _, e := range o.sort() {
		if c := cands[e.pos].Cost; c <= remaining {
			dst = append(dst, int(e.id))
			remaining -= c
		}
	}
	return dst
}

// sortItems lists a dense item array (id = index) and returns it in ratio
// order.
func (o *order) sortItems(items []Item) []entry {
	o.begin()
	for i, it := range items {
		o.list(i, i, it.Value, it.Cost)
	}
	return o.sort()
}

// GreedyPrefix is Greedy without the fill pass: it stops at the first item
// that does not fit. It exists to ablate the fill pass and to match the
// textbook analysis exactly.
type GreedyPrefix struct{ ord order }

// Name implements Selector.
func (*GreedyPrefix) Name() string { return "greedy-prefix" }

// Select implements Selector.
func (g *GreedyPrefix) Select(items []Item, budget float64) []int {
	var sel []int
	remaining := budget
	for _, e := range g.ord.sortItems(items) {
		if items[e.id].Cost > remaining {
			break
		}
		sel = append(sel, int(e.id))
		remaining -= items[e.id].Cost
	}
	return sel
}

// RoundRobin is the stream-agnostic baseline of §3.2: it cycles through
// streams in fixed order, decoding as many as the budget allows each round,
// regardless of content.
type RoundRobin struct {
	cursor int
}

// Name implements Selector.
func (*RoundRobin) Name() string { return "round-robin" }

// Select implements Selector.
func (r *RoundRobin) Select(items []Item, budget float64) []int {
	m := len(items)
	if m == 0 {
		return nil
	}
	var sel []int
	remaining := budget
	for k := 0; k < m; k++ {
		i := (r.cursor + k) % m
		it := items[i]
		if it.Cost == 0 && it.Value == 0 {
			continue // idle stream
		}
		if it.Cost <= remaining {
			sel = append(sel, i)
			remaining -= it.Cost
			continue
		}
		if it.Cost > budget {
			// Unservable even with the whole budget (e.g. a dependency
			// chain longer than the budget): waiting would starve the
			// rotation forever, so skip past it this round.
			continue
		}
		// Budget exhausted for this stream; resume here next round.
		r.cursor = i
		return sel
	}
	r.cursor = (r.cursor + m) % m
	return sel
}

// Random selects a uniformly random feasible subset by shuffling and taking
// items while the budget lasts.
type Random struct {
	rng *rand.Rand
	idx []int
}

// NewRandom creates a random selector with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Selector.
func (*Random) Name() string { return "random" }

// Select implements Selector.
func (r *Random) Select(items []Item, budget float64) []int {
	if cap(r.idx) < len(items) {
		r.idx = make([]int, 0, len(items))
	}
	r.idx = r.idx[:0]
	for i, it := range items {
		if it.Cost > 0 || it.Value > 0 {
			r.idx = append(r.idx, i)
		}
	}
	r.rng.Shuffle(len(r.idx), func(a, b int) { r.idx[a], r.idx[b] = r.idx[b], r.idx[a] })
	var sel []int
	remaining := budget
	for _, i := range r.idx {
		if items[i].Cost <= remaining {
			sel = append(sel, i)
			remaining -= items[i].Cost
		}
	}
	return sel
}

// ExactDP solves the 0/1 knapsack exactly by dynamic programming over a
// discretized budget. It is exponentially cheaper than enumeration but still
// only suitable for small instances (tests and ablations, not production).
type ExactDP struct {
	// Scale discretizes costs: cost units per DP cell. Default 0.01.
	Scale float64
}

// Name implements Selector.
func (*ExactDP) Name() string { return "exact-dp" }

// Select implements Selector.
func (d *ExactDP) Select(items []Item, budget float64) []int {
	scale := d.Scale
	if scale <= 0 {
		scale = 0.01
	}
	w := int(math.Floor(budget/scale + 1e-9))
	if w < 0 {
		return nil
	}
	n := len(items)
	costs := make([]int, n)
	for i, it := range items {
		costs[i] = int(math.Ceil(it.Cost/scale - 1e-9))
	}
	// dp[j] = best value at capacity j; keep[i][j] records choices.
	dp := make([]float64, w+1)
	keep := make([][]bool, n)
	for i := 0; i < n; i++ {
		keep[i] = make([]bool, w+1)
		if items[i].Value <= 0 {
			continue
		}
		ci := costs[i]
		for j := w; j >= ci; j-- {
			if cand := dp[j-ci] + items[i].Value; cand > dp[j] {
				dp[j] = cand
				keep[i][j] = true
			}
		}
	}
	// Reconstruct.
	var sel []int
	j := w
	for i := n - 1; i >= 0; i-- {
		if keep[i][j] {
			sel = append(sel, i)
			j -= costs[i]
		}
	}
	// Reverse to ascending order for stable output.
	for a, b := 0, len(sel)-1; a < b; a, b = a+1, b-1 {
		sel[a], sel[b] = sel[b], sel[a]
	}
	return sel
}

// FractionalOPT returns the optimal value of the *fractional* relaxation:
// items sorted by ratio, the last one taken partially. It upper-bounds every
// 0/1 solution and is the opt_F of the Lemma 1 proof.
func FractionalOPT(items []Item, budget float64) float64 {
	var o order
	var v float64
	remaining := budget
	for _, e := range o.sortItems(items) {
		it := items[e.id]
		if it.Cost <= remaining {
			v += it.Value
			remaining -= it.Cost
			continue
		}
		if it.Cost > 0 && remaining > 0 {
			v += it.Value * remaining / it.Cost
		}
		break
	}
	return v
}
