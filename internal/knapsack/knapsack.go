// Package knapsack implements the combinatorial optimizer of PacketGame
// (§5.3) and the schedulers it is compared against: greedy selection by
// confidence/cost ratio (with the paper's 1−c/B approximation guarantee for
// approximately fractional costs), an exact dynamic-programming oracle, a
// fractional upper bound, round-robin, and random selection.
//
// There is one selector contract, Selector: a list of the round's candidates
// in, the chosen stream ids out. Greedy, GreedyPrefix, RoundRobin, Random and
// ExactDP implement it; so does the cluster worker's remote solve. Ranked
// (the gate's built-in incremental solve) and Tiered (its dense reference)
// have their own entry points because they carry priority tiers.
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

// Item is one slot of a dense, stream-indexed (value, cost) array: the form
// the analysis helpers below (FractionalOPT, MaxCost, TotalValue) and the
// dense reference solver Tiered read. Selectors take Candidates instead.
type Item struct {
	Value float64
	Cost  float64
}

// Candidate is one selectable packet: the stream it stands for, its gating
// confidence (value) and its dependency-inclusive decode cost.
type Candidate struct {
	Stream int32
	Value  float64
	Cost   float64
}

// Selector chooses a subset of a round's candidates whose total cost fits
// the budget. Implementations may keep state across rounds (e.g.
// round-robin's cursor).
type Selector interface {
	// Select appends the stream ids of the chosen candidates to dst (which
	// may be nil), in selection order. cands names only the streams in play
	// this round, each at most once — a stream that is idle, quarantined or
	// shed is simply absent — so a solve touches O(len(cands)) state, and a
	// caller that recycles dst pays no allocation per round.
	Select(dst []int, cands []Candidate, budget float64) []int
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

// Greedy is the paper's optimizer: candidates are ranked by value/cost ratio
// and taken while the budget lasts; remaining budget is then filled with any
// later candidates that still fit ("decode as many as possible packets that
// the current prioritized packet refers to" generalizes to this fill pass
// once reference costs are folded into Candidate.Cost by the dependency
// tracker).
//
// For approximately fractional costs it guarantees value ≥ (1−c/B)·OPT
// (Lemma 1). A round costs one scan of the candidates plus the ordering
// kernel's linear radix sort of the positive-value ones — no comparison
// sort. Ties break on the stream id itself, never on list position, so the
// selection does not depend on the order cands is in (the cluster
// coordinator's gather appends workers' lists as they arrive).
type Greedy struct {
	ord order // kernel scratch, reused across rounds
}

// Select implements Selector; in steady state nothing is allocated.
func (g *Greedy) Select(dst []int, cands []Candidate, budget float64) []int {
	remaining := budget
	for _, e := range g.ord.sortCands(cands) {
		if c := cands[e.pos].Cost; c <= remaining {
			dst = append(dst, int(e.id))
			remaining -= c
		}
	}
	return dst
}

// sortCands lists a candidate list (id = stream, pos = list position) and
// returns it in ratio order.
func (o *order) sortCands(cands []Candidate) []entry {
	o.begin()
	for k, c := range cands {
		o.list(int(c.Stream), k, c.Value, c.Cost)
	}
	return o.sort()
}

// GreedyPrefix is Greedy without the fill pass: it stops at the first
// candidate that does not fit. It exists to ablate the fill pass and to
// match the textbook analysis exactly. Like Greedy it is order-free.
type GreedyPrefix struct{ ord order }

// Select implements Selector.
func (g *GreedyPrefix) Select(dst []int, cands []Candidate, budget float64) []int {
	remaining := budget
	for _, e := range g.ord.sortCands(cands) {
		c := cands[e.pos].Cost
		if c > remaining {
			break
		}
		dst = append(dst, int(e.id))
		remaining -= c
	}
	return dst
}

// RoundRobin is the stream-agnostic baseline of §3.2: it cycles through
// streams in fixed order, decoding as many as the budget allows each round,
// regardless of content. cands must be in ascending stream order.
type RoundRobin struct {
	cursor int32 // stream the rotation resumes at
}

// Select implements Selector.
func (r *RoundRobin) Select(dst []int, cands []Candidate, budget float64) []int {
	n := len(cands)
	start, hi := 0, n // first candidate at or after the cursor
	for start < hi {
		if mid := (start + hi) / 2; cands[mid].Stream < r.cursor {
			start = mid + 1
		} else {
			hi = mid
		}
	}
	remaining := budget
	for k := 0; k < n; k++ {
		c := cands[(start+k)%n]
		if c.Cost <= remaining {
			dst = append(dst, int(c.Stream))
			remaining -= c.Cost
			continue
		}
		if c.Cost > budget {
			// Unservable even with the whole budget (e.g. a dependency
			// chain longer than the budget): waiting would starve the
			// rotation forever, so skip past it this round.
			continue
		}
		// Budget exhausted for this stream; resume here next round.
		r.cursor = c.Stream
		break
	}
	return dst
}

// Random selects a uniformly random feasible subset by shuffling and taking
// candidates while the budget lasts. A seed reproduces its selections only
// over the same candidate order, so cands must be in ascending stream order.
type Random struct {
	rng *rand.Rand
	idx []int
}

// NewRandom creates a random selector with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Select implements Selector.
func (r *Random) Select(dst []int, cands []Candidate, budget float64) []int {
	r.idx = r.idx[:0]
	for k := range cands {
		r.idx = append(r.idx, k)
	}
	r.rng.Shuffle(len(r.idx), func(a, b int) { r.idx[a], r.idx[b] = r.idx[b], r.idx[a] })
	remaining := budget
	for _, k := range r.idx {
		if c := cands[k]; c.Cost <= remaining {
			dst = append(dst, int(c.Stream))
			remaining -= c.Cost
		}
	}
	return dst
}

// ExactDP solves the 0/1 knapsack exactly by dynamic programming over a
// discretized budget. It is exponentially cheaper than enumeration but still
// only suitable for small instances (tests and ablations, not production).
// The chosen streams are appended in list order.
type ExactDP struct {
	// Scale discretizes costs: cost units per DP cell. Default 0.01.
	Scale float64

	// Scratch, reused across solves: per-candidate discretized costs,
	// dp[j] = best value at capacity j, and keep[i*(w+1)+j] recording
	// whether candidate i was taken at capacity j.
	costs []int
	dp    []float64
	keep  []bool
}

// Select implements Selector.
func (d *ExactDP) Select(dst []int, cands []Candidate, budget float64) []int {
	scale := d.Scale
	if scale <= 0 {
		scale = 0.01
	}
	w := int(math.Floor(budget/scale + 1e-9))
	if w < 0 {
		return dst
	}
	n := len(cands)
	d.costs, d.dp, d.keep = grown(d.costs, n), grown(d.dp, w+1), grown(d.keep, n*(w+1))
	costs, dp, keep := d.costs, d.dp, d.keep
	clear(dp)
	clear(keep)
	for i, c := range cands {
		costs[i] = int(math.Ceil(c.Cost/scale - 1e-9))
		if c.Value <= 0 {
			continue
		}
		for j := w; j >= costs[i]; j-- {
			if v := dp[j-costs[i]] + c.Value; v > dp[j] {
				dp[j] = v
				keep[i*(w+1)+j] = true
			}
		}
	}
	// Reconstruct back to front, then reverse into list order.
	first := len(dst)
	for i, j := n-1, w; i >= 0; i-- {
		if keep[i*(w+1)+j] {
			dst = append(dst, int(cands[i].Stream))
			j -= costs[i]
		}
	}
	for a, b := first, len(dst)-1; a < b; a, b = a+1, b-1 {
		dst[a], dst[b] = dst[b], dst[a]
	}
	return dst
}

// grown returns buf resized to n elements, reallocating only when it is too
// small; the contents are unspecified.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// FractionalOPT returns the optimal value of the *fractional* relaxation:
// items sorted by ratio, the last one taken partially. It upper-bounds every
// 0/1 solution and is the opt_F of the Lemma 1 proof.
func FractionalOPT(items []Item, budget float64) float64 {
	var o order
	for i, it := range items {
		o.list(i, i, it.Value, it.Cost)
	}
	var v float64
	remaining := budget
	for _, e := range o.sort() {
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
