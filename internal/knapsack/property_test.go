package knapsack

import (
	"math"
	"math/rand"
	"testing"
)

// bruteOPT enumerates all 2^m subsets and returns the best feasible value —
// the true 0/1 optimum, tractable for the small m used here.
func bruteOPT(items []Item, budget float64) float64 {
	best := 0.0
	for mask := 0; mask < 1<<len(items); mask++ {
		var v, c float64
		for i := range items {
			if mask&(1<<i) != 0 {
				v += items[i].Value
				c += items[i].Cost
			}
		}
		if c <= budget+1e-9 && v > best {
			best = v
		}
	}
	return best
}

// randInstance draws a small video-like knapsack instance: costs from the
// calibrated picture-type set (occasionally perturbed to a tenth of a unit),
// values in [0,1] with some zeros (idle/hopeless streams), and a budget that
// can afford at least the largest single item.
func randInstance(rng *rand.Rand) ([]Item, float64) {
	m := 1 + rng.Intn(12)
	items := make([]Item, m)
	costChoices := []float64{0.8, 1.0, 2.9}
	for i := range items {
		c := costChoices[rng.Intn(len(costChoices))]
		if rng.Float64() < 0.3 {
			// Dependency-inflated cost: a chain of undecoded references.
			c += 0.1 * float64(rng.Intn(40))
		}
		v := rng.Float64()
		if rng.Float64() < 0.15 {
			v = 0
		}
		items[i] = Item{Value: v, Cost: math.Round(c*10) / 10}
	}
	var total float64
	for _, it := range items {
		total += it.Cost
	}
	lo := MaxCost(items)
	budget := lo + rng.Float64()*(total-lo+1)
	return items, math.Round(budget*10) / 10
}

// TestGreedyLemma1PropertyVsBruteForce checks, on randomized instances, the
// chain of Lemma 1 guarantees against the exhaustive optimum:
//
//	greedy ≥ prefix ≥ (1−c/B)·opt_F ≥ (1−c/B)·OPT
//
// plus feasibility of every returned selection and that the DP oracle
// matches the brute force.
func TestGreedyLemma1PropertyVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const eps = 1e-9
	for trial := 0; trial < 500; trial++ {
		items, budget := randInstance(rng)
		c := MaxCost(items)
		if c > budget {
			t.Fatalf("trial %d: instance generator broke its own invariant (c=%v > B=%v)", trial, c, budget)
		}
		bound := 1 - c/budget

		opt := bruteOPT(items, budget)
		fracOPT := FractionalOPT(items, budget)
		if fracOPT < opt-1e-6 {
			t.Fatalf("trial %d: fractional OPT %v below integral OPT %v", trial, fracOPT, opt)
		}

		greedySel := new(Greedy).Select(nil, candsOf(items), budget)
		prefixSel := new(GreedyPrefix).Select(nil, candsOf(items), budget)
		dpSel := new(ExactDP).Select(nil, candsOf(items), budget)
		for name, sel := range map[string][]int{"greedy": greedySel, "prefix": prefixSel, "dp": dpSel} {
			if got := TotalCost(items, sel); got > budget+eps {
				t.Fatalf("trial %d: %s overspent: %v > %v", trial, name, got, budget)
			}
		}

		greedyVal := TotalValue(items, greedySel)
		prefixVal := TotalValue(items, prefixSel)
		if greedyVal < prefixVal-eps {
			t.Fatalf("trial %d: fill pass lost value: greedy %v < prefix %v", trial, greedyVal, prefixVal)
		}
		if prefixVal < bound*fracOPT-1e-6 {
			t.Fatalf("trial %d: Lemma 1 violated: prefix %v < (1-%v/%v)·opt_F=%v\nitems=%+v budget=%v",
				trial, prefixVal, c, budget, bound*fracOPT, items, budget)
		}
		if greedyVal < bound*opt-1e-6 {
			t.Fatalf("trial %d: greedy %v < (1-c/B)·OPT = %v (OPT=%v)\nitems=%+v budget=%v",
				trial, greedyVal, bound*opt, opt, items, budget)
		}
		if dpVal := TotalValue(items, dpSel); math.Abs(dpVal-opt) > 1e-6 {
			t.Fatalf("trial %d: ExactDP %v != brute-force OPT %v\nitems=%+v budget=%v",
				trial, dpVal, opt, items, budget)
		}
	}
}
