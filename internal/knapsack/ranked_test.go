package knapsack

import (
	"math/rand"
	"testing"
)

// TestRankedMatchesGreedy drives Ranked through many rounds of randomized
// churn — values drifting, candidates disappearing and reviving, exact ratio
// ties — and asserts the selection is identical (same ids, same order) to a
// from-scratch Greedy solve over the equivalent item set every round.
func TestRankedMatchesGreedy(t *testing.T) {
	const m = 64
	rng := rand.New(rand.NewSource(7))
	rk := NewRanked(m)
	g := &Greedy{}
	items := make([]Item, m)
	vals := make([]float64, m)
	costs := make([]float64, m)
	for i := range vals {
		vals[i] = rng.Float64()
		costs[i] = rng.Float64() * 3
	}
	for round := 0; round < 500; round++ {
		// Churn a random subset; occasionally force ties and zero costs.
		for n := rng.Intn(m / 2); n > 0; n-- {
			i := rng.Intn(m)
			switch rng.Intn(10) {
			case 0:
				vals[i] = 0 // drops out entirely
			case 1:
				costs[i] = 0 // infinite ratio
			case 2:
				j := rng.Intn(m)
				vals[i], costs[i] = vals[j], costs[j] // exact ratio tie
			default:
				vals[i] = rng.Float64()
				costs[i] = rng.Float64() * 3
			}
		}
		present := make([]bool, m)
		for i := range present {
			present[i] = rng.Intn(5) != 0 // ~20% idle per round
		}
		budget := rng.Float64() * 20

		for i := range items {
			items[i] = Item{}
			if present[i] {
				items[i] = Item{Value: vals[i], Cost: costs[i]}
			}
		}
		want := g.Select(nil, candsOf(items), budget)

		rk.BeginRound()
		for i := 0; i < m; i++ {
			if present[i] {
				rk.Offer(i, vals[i], costs[i], 0)
			}
		}
		got := rk.SelectAppend(nil, 1, budget)

		if len(got) != len(want) {
			t.Fatalf("round %d: ranked chose %d items, greedy %d (%v vs %v)", round, len(got), len(want), got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("round %d: selection diverged at position %d: %v vs %v", round, k, got, want)
			}
		}
	}
}

// TestRankedMatchesTiered is the same property against the strict-priority
// cascade, including budget exhaustion skipping lower tiers.
func TestRankedMatchesTiered(t *testing.T) {
	const m, numTiers = 48, 3
	rng := rand.New(rand.NewSource(11))
	rk := NewRanked(m)
	td := &Tiered{}
	items := make([]Item, m)
	tiers := make([]uint8, m)
	vals := make([]float64, m)
	costs := make([]float64, m)
	for i := range vals {
		vals[i] = rng.Float64()
		costs[i] = rng.Float64() * 3
		tiers[i] = uint8(rng.Intn(numTiers))
	}
	for round := 0; round < 500; round++ {
		for n := rng.Intn(m / 2); n > 0; n-- {
			i := rng.Intn(m)
			if rng.Intn(8) == 0 {
				vals[i] = 0
			} else {
				vals[i] = rng.Float64()
				costs[i] = rng.Float64() * 3
			}
		}
		present := make([]bool, m)
		for i := range present {
			present[i] = rng.Intn(4) != 0
		}
		// Include tiny budgets so the tier-skip guard is exercised.
		budget := rng.Float64() * 6

		for i := range items {
			items[i] = Item{}
			if present[i] {
				items[i] = Item{Value: vals[i], Cost: costs[i]}
			}
		}
		want := td.SelectAppend(nil, items, tiers, numTiers, budget)

		rk.BeginRound()
		for i := 0; i < m; i++ {
			if present[i] {
				rk.Offer(i, vals[i], costs[i], tiers[i])
			}
		}
		got := rk.SelectAppend(nil, numTiers, budget)

		if len(got) != len(want) {
			t.Fatalf("round %d: ranked chose %d items, tiered %d (%v vs %v)", round, len(got), len(want), got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("round %d: selection diverged at position %d: %v vs %v", round, k, got, want)
			}
		}
	}
}

// TestRankedSteadyStateAllocFree: once buffers have grown, rounds with churn
// must not allocate.
func TestRankedSteadyStateAllocFree(t *testing.T) {
	const m = 256
	rk := NewRanked(m)
	dst := make([]int, 0, m)
	run := func(round int) {
		rk.BeginRound()
		for i := 0; i < m; i++ {
			v := float64((i*31+round*17)%97) / 97
			rk.Offer(i, v+0.01, float64(i%7)+1, uint8(i%2))
		}
		dst = rk.SelectAppend(dst[:0], 2, 64)
	}
	for r := 0; r < 8; r++ {
		run(r)
	}
	round := 8
	avg := testing.AllocsPerRun(100, func() {
		run(round)
		round++
	})
	if avg != 0 {
		t.Fatalf("steady-state Ranked round allocated %.1f times", avg)
	}
}

// TestOrderScratchShrinks: the kernel scratch is sized by the candidates
// listed, and must release memory after a transient spike instead of pinning
// the high-water mark forever — on the solve after the first one whose
// listings all stayed below a quarter of the retained capacity.
func TestOrderScratchShrinks(t *testing.T) {
	g := &Greedy{}
	big := make([]Item, 100_000)
	for i := range big {
		big[i] = Item{Value: 1, Cost: 1}
	}
	g.Select(nil, candsOf(big), 10)
	if cap(g.ord.es) < len(big) || cap(g.ord.tmp) < len(big) {
		t.Fatalf("scratch did not grow to the spike: cap %d/%d", cap(g.ord.es), cap(g.ord.tmp))
	}
	small := big[:2000]
	g.Select(nil, candsOf(small), 10)
	g.Select(nil, candsOf(small), 10)
	if cap(g.ord.es) > len(big)/4 || cap(g.ord.tmp) > len(big)/4 {
		t.Fatalf("scratch still pinned at spike size: cap %d/%d after m=%d rounds", cap(g.ord.es), cap(g.ord.tmp), len(small))
	}
	// And it must still produce correct selections after shrinking.
	sel := g.Select(nil, candsOf(small), 3)
	if len(sel) != 3 {
		t.Fatalf("post-shrink selection wrong: %v", sel)
	}
	// A mostly idle fleet is sized by its candidates, not by m.
	sparse := make([]Item, 100_000)
	for i := 0; i < len(sparse); i += 100 {
		sparse[i] = Item{Value: 1, Cost: 1}
	}
	g = &Greedy{}
	g.Select(nil, candsOf(sparse), 10)
	if cap(g.ord.es) > len(sparse)/25 {
		t.Fatalf("scratch sized by m: cap %d for %d candidates", cap(g.ord.es), len(sparse)/100)
	}
}
