package knapsack

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// naiveTiered is an independent reimplementation of the strict-priority
// semantics used as a reference oracle: per tier, sort a copied index list
// by ratio and take greedily with fill.
func naiveTiered(items []Item, tiers []uint8, numTiers int, budget float64) []int {
	var sel []int
	remaining := budget
	for t := 0; t < numTiers; t++ {
		var order []int
		for i, it := range items {
			if it.Value > 0 && clampTier(tiers[i], numTiers) == t {
				order = append(order, i)
			}
		}
		// Insertion sort by descending ratio, index tie-break — deliberately
		// a different algorithm from the production ordering kernel.
		for a := 1; a < len(order); a++ {
			for b := a; b > 0; b-- {
				ra, rb := ratio(items[order[b]]), ratio(items[order[b-1]])
				if ra > rb || (ra == rb && order[b] < order[b-1]) {
					order[b], order[b-1] = order[b-1], order[b]
				} else {
					break
				}
			}
		}
		for _, i := range order {
			if items[i].Cost <= remaining {
				sel = append(sel, i)
				remaining -= items[i].Cost
			}
		}
	}
	return sel
}

func randTieredInstance(rng *rand.Rand, numTiers int) ([]Item, []uint8) {
	n := 4 + rng.Intn(20)
	items := make([]Item, n)
	tiers := make([]uint8, n)
	for i := range items {
		items[i] = Item{Value: 0.05 + rng.Float64(), Cost: 0.5 + 2.5*rng.Float64()}
		tiers[i] = uint8(rng.Intn(numTiers))
		if rng.Float64() < 0.15 {
			items[i] = Item{} // idle/quarantined slot
		}
	}
	return items, tiers
}

func TestTieredMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := &Tiered{}
	for trial := 0; trial < 300; trial++ {
		numTiers := 1 + rng.Intn(4)
		items, tiers := randTieredInstance(rng, numTiers)
		budget := 1 + rng.Float64()*12
		got := s.SelectAppend(nil, items, tiers, numTiers, budget)
		want := naiveTiered(items, tiers, numTiers, budget)
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("trial %d: tiered %v != naive %v", trial, got, want)
		}
	}
}

func TestTieredSingleTierEqualsGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tiered := &Tiered{}
	greedy := &Greedy{}
	for trial := 0; trial < 200; trial++ {
		items, _ := randTieredInstance(rng, 1)
		tiers := make([]uint8, len(items))
		budget := 1 + rng.Float64()*10
		got := tiered.SelectAppend(nil, items, tiers, 1, budget)
		want := greedy.Select(nil, candsOf(items), budget)
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("trial %d: tiered %v != greedy %v", trial, got, want)
		}
	}
}

// TestTieredStrictPriority: a higher tier is never starved by a lower one —
// any tier-t item left unselected must not fit in the budget remaining at
// its tier's turn, regardless of how attractive lower-tier items are.
func TestTieredStrictPriority(t *testing.T) {
	items := []Item{
		{Value: 0.1, Cost: 3},  // tier 0, terrible ratio
		{Value: 0.9, Cost: 1},  // tier 1, great ratio
		{Value: 0.8, Cost: 1},  // tier 1
		{Value: 0.99, Cost: 1}, // tier 2, best ratio of all
	}
	tiers := []uint8{0, 1, 1, 2}
	s := &Tiered{}
	sel := s.SelectAppend(nil, items, tiers, 3, 4)
	// Tier 0 takes its item first (cost 3), leaving 1 for tier 1's best; the
	// tier-2 item — the best global ratio — is shed.
	want := []int{0, 1}
	if !reflect.DeepEqual(sel, want) {
		t.Fatalf("sel = %v, want %v", sel, want)
	}
}

// TestTieredPerTierLemmaBound: within each tier, the value taken satisfies
// value_t ≥ (1 − c_t/B_t)·OPT_t against the budget B_t the tier saw.
func TestTieredPerTierLemmaBound(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := &Tiered{}
	dp := &ExactDP{Scale: 0.01}
	for trial := 0; trial < 150; trial++ {
		numTiers := 2 + rng.Intn(3)
		items, tiers := randTieredInstance(rng, numTiers)
		budget := 2 + rng.Float64()*10
		sel := s.SelectAppend(nil, items, tiers, numTiers, budget)
		inSel := make([]bool, len(items))
		for _, i := range sel {
			inSel[i] = true
		}
		remaining := budget
		for tier := 0; tier < numTiers; tier++ {
			var sub []Item
			var got, c float64
			for i, it := range items {
				if clampTier(tiers[i], numTiers) != tier || it.Value <= 0 {
					continue
				}
				sub = append(sub, it)
				if it.Cost > c {
					c = it.Cost
				}
				if inSel[i] {
					got += it.Value
				}
			}
			if len(sub) == 0 {
				continue
			}
			opt := TotalValue(sub, dp.Select(nil, candsOf(sub), remaining))
			if remaining > 0 && c < remaining {
				if bound := (1 - c/remaining) * opt; got < bound-1e-6 {
					t.Fatalf("trial %d tier %d: value %v < (1-%v/%v)·OPT = %v",
						trial, tier, got, c, remaining, bound)
				}
			}
			for i, it := range items {
				if inSel[i] && clampTier(tiers[i], numTiers) == tier {
					remaining -= it.Cost
				}
			}
		}
	}
}

// TestTieredInTierBudgetFlow is the breaker/governor interplay guarantee:
// when a stream is quarantined (its item zeroed), the budget it frees is
// offered to its own tier's remaining members before anything cascades to
// lower tiers. Lower tiers may gain only from the residue.
func TestTieredInTierBudgetFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	s := &Tiered{}
	for trial := 0; trial < 200; trial++ {
		numTiers := 2 + rng.Intn(3)
		items, tiers := randTieredInstance(rng, numTiers)
		budget := 2 + rng.Float64()*8
		base := s.SelectAppend(nil, items, tiers, numTiers, budget)
		if len(base) == 0 {
			continue
		}
		// Quarantine one selected stream.
		q := base[rng.Intn(len(base))]
		qTier := clampTier(tiers[q], numTiers)
		mixed := make([]Item, len(items))
		copy(mixed, items)
		mixed[q] = Item{}
		after := s.SelectAppend(nil, mixed, tiers, numTiers, budget)

		tierValue := func(sel []int, tier int, skip int) float64 {
			var v float64
			for _, i := range sel {
				if i != skip && clampTier(tiers[i], numTiers) == tier {
					v += items[i].Value
				}
			}
			return v
		}
		// The quarantined stream's own tier (minus the stream itself) must
		// not lose value — its freed budget stays in-tier first.
		if before, now := tierValue(base, qTier, q), tierValue(after, qTier, -1); now < before-1e-9 {
			t.Fatalf("trial %d: tier %d value dropped %v → %v after quarantining stream %d",
				trial, qTier, before, now, q)
		}
		// Tiers above the quarantined one are budget-upstream: their solve
		// saw the same remaining budget, so their selection is unchanged.
		for tier := 0; tier < qTier; tier++ {
			if b, a := tierValue(base, tier, -1), tierValue(after, tier, -1); math.Abs(b-a) > 1e-9 {
				t.Fatalf("trial %d: upstream tier %d changed %v → %v", trial, tier, b, a)
			}
		}
	}
}

func TestTieredQuarantinedNeverSelected(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	s := &Tiered{}
	for trial := 0; trial < 200; trial++ {
		numTiers := 1 + rng.Intn(4)
		items, tiers := randTieredInstance(rng, numTiers)
		quarantined := make([]bool, len(items))
		for i := range items {
			if rng.Float64() < 0.3 {
				quarantined[i] = true
				items[i] = Item{}
			}
		}
		for _, i := range s.SelectAppend(nil, items, tiers, numTiers, 1+rng.Float64()*10) {
			if quarantined[i] {
				t.Fatalf("trial %d: picked quarantined item %d", trial, i)
			}
		}
	}
}

func TestTieredClampsOutOfRangeTiers(t *testing.T) {
	items := []Item{{Value: 1, Cost: 1}, {Value: 1, Cost: 1}}
	tiers := []uint8{0, 9} // 9 clamps to lowest priority (numTiers-1 = 1)
	s := &Tiered{}
	sel := s.SelectAppend(nil, items, tiers, 2, 1)
	if !reflect.DeepEqual(sel, []int{0}) {
		t.Fatalf("sel = %v, want [0] (clamped tier loses the tie)", sel)
	}
}

func TestTieredSelectAppendZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const n = 256
	items := make([]Item, n)
	tiers := make([]uint8, n)
	for i := range items {
		items[i] = Item{Value: rng.Float64(), Cost: 0.5 + rng.Float64()}
		tiers[i] = uint8(rng.Intn(4))
	}
	s := &Tiered{}
	dst := make([]int, 0, n)
	// Warm the persistent scratch.
	dst = s.SelectAppend(dst[:0], items, tiers, 4, 64)
	allocs := testing.AllocsPerRun(100, func() {
		dst = s.SelectAppend(dst[:0], items, tiers, 4, 64)
	})
	if allocs != 0 {
		t.Fatalf("SelectAppend allocates %v/op in steady state, want 0", allocs)
	}
}
