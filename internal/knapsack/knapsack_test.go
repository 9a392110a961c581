package knapsack

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// candsOf lists a dense item array as candidates, ascending by stream. A zero
// slot is an idle stream and is not listed: in a candidate list absence is
// absence.
func candsOf(items []Item) []Candidate {
	var cands []Candidate
	for i, it := range items {
		if it != (Item{}) {
			cands = append(cands, Candidate{Stream: int32(i), Value: it.Value, Cost: it.Cost})
		}
	}
	return cands
}

func TestGreedyBasic(t *testing.T) {
	items := []Item{
		{Value: 0.9, Cost: 1},   // ratio 0.9
		{Value: 0.5, Cost: 2.9}, // ratio ~0.17
		{Value: 0.8, Cost: 1},   // ratio 0.8
		{Value: 0.1, Cost: 0.8}, // ratio 0.125
	}
	g := &Greedy{}
	sel := g.Select(nil, candsOf(items), 2.0)
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 2 {
		t.Errorf("sel = %v, want [0 2]", sel)
	}
	if v := TotalValue(items, sel); math.Abs(v-1.7) > 1e-12 {
		t.Errorf("value = %v", v)
	}
	if c := TotalCost(items, sel); c != 2 {
		t.Errorf("cost = %v", c)
	}
}

func TestGreedySkipsZeroValue(t *testing.T) {
	items := []Item{{Value: 0, Cost: 1}, {Value: 0.1, Cost: 1}}
	sel := (&Greedy{}).Select(nil, candsOf(items), 5)
	if len(sel) != 1 || sel[0] != 1 {
		t.Errorf("sel = %v, want [1]", sel)
	}
}

func TestGreedyZeroCostFirst(t *testing.T) {
	items := []Item{{Value: 0.1, Cost: 1}, {Value: 0.01, Cost: 0}}
	sel := (&Greedy{}).Select(nil, candsOf(items), 1)
	if len(sel) != 2 || sel[0] != 1 {
		t.Errorf("sel = %v, want zero-cost item first", sel)
	}
}

func TestGreedyFillPassBeatsPrefix(t *testing.T) {
	// Prefix greedy stops at the big item; fill greedy skips past it and
	// takes the small one.
	items := []Item{
		{Value: 1.0, Cost: 1},   // taken by both
		{Value: 0.9, Cost: 2.5}, // doesn't fit after item 0 (budget 2)
		{Value: 0.3, Cost: 1},   // fill pass takes this
	}
	prefix := (&GreedyPrefix{}).Select(nil, candsOf(items), 2)
	fill := (&Greedy{}).Select(nil, candsOf(items), 2)
	if TotalValue(items, fill) <= TotalValue(items, prefix) {
		t.Errorf("fill (%v) must beat prefix (%v)", fill, prefix)
	}
}

func TestGreedyEmptyAndInfeasible(t *testing.T) {
	g := &Greedy{}
	if sel := g.Select(nil, nil, 10); len(sel) != 0 {
		t.Errorf("empty items: %v", sel)
	}
	items := []Item{{Value: 1, Cost: 5}}
	if sel := g.Select(nil, candsOf(items), 1); len(sel) != 0 {
		t.Errorf("infeasible item selected: %v", sel)
	}
}

func TestExactDPOptimal(t *testing.T) {
	// Classic instance where greedy-by-ratio is suboptimal.
	items := []Item{
		{Value: 0.6, Cost: 1}, // ratio 0.6
		{Value: 1.0, Cost: 2}, // ratio 0.5
		{Value: 1.0, Cost: 2}, // ratio 0.5
	}
	dp := &ExactDP{}
	sel := dp.Select(nil, candsOf(items), 4)
	if v := TotalValue(items, sel); math.Abs(v-2.0) > 1e-9 {
		t.Errorf("DP value = %v, want 2.0 (items 1+2)", v)
	}
}

func TestFractionalOPTUpperBounds(t *testing.T) {
	items := []Item{{Value: 1, Cost: 2}, {Value: 1, Cost: 2}, {Value: 0.3, Cost: 1}}
	opt := FractionalOPT(items, 3)
	// Takes item0 (cost 2) + half of item1: 1 + 0.5 = 1.5.
	if math.Abs(opt-1.5) > 1e-12 {
		t.Errorf("fractional OPT = %v, want 1.5", opt)
	}
	dp := (&ExactDP{}).Select(nil, candsOf(items), 3)
	if TotalValue(items, dp) > opt+1e-9 {
		t.Errorf("DP %v exceeds fractional bound %v", TotalValue(items, dp), opt)
	}
}

// TestLemma1ApproximationRatio is the paper's Lemma 1 as a property test:
// on random instances with video-like costs, greedy value ≥ (1−c/B)·OPT.
func TestLemma1ApproximationRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	costs := []float64{2.9, 1.0, 0.8} // I, P, B
	g := &GreedyPrefix{}
	dp := &ExactDP{Scale: 0.1}
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(12)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				Value: rng.Float64(),
				Cost:  costs[rng.Intn(len(costs))],
			}
		}
		budget := 3 + rng.Float64()*12
		vg := TotalValue(items, g.Select(nil, candsOf(items), budget))
		opt := FractionalOPT(items, budget)
		if opt == 0 {
			continue
		}
		bound := (1 - MaxCost(items)/budget) * opt
		if vg < bound-1e-9 {
			t.Fatalf("trial %d: greedy %v < (1-c/B)·opt_F %v (items=%v budget=%v)",
				trial, vg, bound, items, budget)
		}
		// The fill-pass greedy can only do better.
		if vf := TotalValue(items, (&Greedy{}).Select(nil, candsOf(items), budget)); vf < vg-1e-9 {
			t.Fatalf("trial %d: fill greedy %v below prefix greedy %v", trial, vf, vg)
		}
		// And the DP optimum respects the fractional bound.
		if vdp := TotalValue(items, dp.Select(nil, candsOf(items), budget)); vdp > opt+1e-6 {
			t.Fatalf("trial %d: DP %v above fractional %v", trial, vdp, opt)
		}
	}
}

func TestSelectorsRespectBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	selectors := []Selector{&Greedy{}, &GreedyPrefix{}, &RoundRobin{}, NewRandom(1), &ExactDP{Scale: 0.1}}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Value: rng.Float64(), Cost: 0.5 + rng.Float64()*3}
		}
		budget := rng.Float64() * 8
		for _, s := range selectors {
			sel := s.Select(nil, candsOf(items), budget)
			if c := TotalCost(items, sel); c > budget+1e-9 {
				t.Errorf("%T: cost %v exceeds budget %v", s, c, budget)
			}
			seen := map[int]bool{}
			for _, i := range sel {
				if i < 0 || i >= n || seen[i] {
					t.Errorf("%T: invalid/duplicate index %d in %v", s, i, sel)
				}
				seen[i] = true
			}
		}
	}
}

func TestRoundRobinCyclesFairly(t *testing.T) {
	items := make([]Item, 6)
	for i := range items {
		items[i] = Item{Value: 1, Cost: 1}
	}
	rr := &RoundRobin{}
	counts := make([]int, 6)
	// Budget 2 per round: each round decodes 2 streams, cursor advances.
	for round := 0; round < 9; round++ {
		for _, i := range rr.Select(nil, candsOf(items), 2) {
			counts[i]++
		}
	}
	for i, c := range counts {
		if c != 3 {
			t.Errorf("stream %d selected %d times, want 3 (fair rotation)", i, c)
		}
	}
}

func TestRoundRobinIgnoresValues(t *testing.T) {
	items := []Item{{Value: 0.001, Cost: 1}, {Value: 0.999, Cost: 1}}
	rr := &RoundRobin{}
	sel := rr.Select(nil, candsOf(items), 1)
	if len(sel) != 1 || sel[0] != 0 {
		t.Errorf("round-robin must start at stream 0 regardless of value: %v", sel)
	}
}

func TestRoundRobinSkipsIdleStreams(t *testing.T) {
	items := []Item{{}, {Value: 0.5, Cost: 1}, {}}
	rr := &RoundRobin{}
	sel := rr.Select(nil, candsOf(items), 5)
	if len(sel) != 1 || sel[0] != 1 {
		t.Errorf("sel = %v, want only the active stream", sel)
	}
}

func TestRandomSelectorDeterministicSeed(t *testing.T) {
	items := make([]Item, 20)
	for i := range items {
		items[i] = Item{Value: 1, Cost: 1}
	}
	a, b := NewRandom(5), NewRandom(5)
	for round := 0; round < 10; round++ {
		sa, sb := a.Select(nil, candsOf(items), 7), b.Select(nil, candsOf(items), 7)
		if len(sa) != len(sb) {
			t.Fatalf("round %d: diverged", round)
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("round %d: diverged at %d", round, i)
			}
		}
	}
}

func TestRandomCoversAllStreamsEventually(t *testing.T) {
	items := make([]Item, 10)
	for i := range items {
		items[i] = Item{Value: 1, Cost: 1}
	}
	r := NewRandom(3)
	seen := map[int]bool{}
	for round := 0; round < 200; round++ {
		for _, i := range r.Select(nil, candsOf(items), 3) {
			seen[i] = true
		}
	}
	if len(seen) != 10 {
		t.Errorf("random selector covered %d/10 streams", len(seen))
	}
}

func TestMaxCost(t *testing.T) {
	items := []Item{{Cost: 1}, {Cost: 2.9}, {Cost: 0.8}}
	if got := MaxCost(items); got != 2.9 {
		t.Errorf("MaxCost = %v", got)
	}
	if got := MaxCost(nil); got != 0 {
		t.Errorf("MaxCost(nil) = %v", got)
	}
}

// Property: greedy never selects an item that individually exceeds budget,
// and the selection is always feasible.
func TestGreedyFeasibilityProperty(t *testing.T) {
	f := func(vals []float64, budgetRaw float64) bool {
		items := make([]Item, len(vals))
		for i, v := range vals {
			items[i] = Item{Value: math.Abs(math.Mod(v, 1)), Cost: 0.5 + math.Abs(math.Mod(v*3, 3))}
		}
		budget := math.Abs(math.Mod(budgetRaw, 20))
		sel := (&Greedy{}).Select(nil, candsOf(items), budget)
		return TotalCost(items, sel) <= budget+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundRobinSkipsUnservable(t *testing.T) {
	// Stream 0's dependency chain exceeds the whole budget: round-robin
	// must not starve behind it.
	items := []Item{
		{Value: 1, Cost: 10}, // unservable at budget 3
		{Value: 1, Cost: 1},
		{Value: 1, Cost: 1},
	}
	rr := &RoundRobin{}
	sel := rr.Select(nil, candsOf(items), 3)
	if len(sel) != 2 || sel[0] != 1 || sel[1] != 2 {
		t.Errorf("sel = %v, want [1 2] (skipping the unservable stream)", sel)
	}
}
