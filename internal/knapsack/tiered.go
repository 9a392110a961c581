package knapsack

// Tiered is the admission-control variant of Greedy used under overload:
// every item carries a priority tier (0 = highest, e.g. fire detection), and
// the solve proceeds tier by tier in strict priority order — tier 0 solves
// over the whole budget, each lower tier over whatever the tiers above left
// behind. When the governor shrinks the effective budget, the remainder
// reaching low tiers shrinks first, so low-priority streams are shed first.
//
// The in-tier budget-flow guarantee falls out of the ordering: within a
// tier the solve is exactly Greedy (ratio order + fill), so the budget a
// breaker-quarantined stream would have consumed is first offered to the
// other members of its own tier — they are filled before the residue
// cascades — and never leaks straight to the global pool where lower tiers
// would bid on it.
//
// Within each tier the Lemma-1 guarantee holds against the budget the tier
// actually saw: tier t's selected value is ≥ (1−c_t/B_t)·OPT_t for
// approximately fractional costs, where B_t is the budget remaining when
// tier t solved and c_t the tier's largest item cost.
//
// With numTiers == 1 the result is identical to Greedy.Select over the
// positive-budget rounds the gate runs. Tiered reads a dense, stream-indexed
// item array (a zero slot is an absent stream): it is the from-scratch
// reference Ranked's cascade is tested against. All scratch is persistent: steady-state rounds allocate nothing beyond growth
// of the caller's dst.
type Tiered struct {
	sub order // kernel scratch, reused across tiers and rounds
}

// SelectAppend appends the chosen indices to dst, solving tiers in priority
// order. tiers[i] is item i's tier and must be < numTiers (out-of-range
// tiers are clamped to the lowest priority); len(tiers) must equal
// len(items).
func (s *Tiered) SelectAppend(dst []int, items []Item, tiers []uint8, numTiers int, budget float64) []int {
	if len(items) == 0 || numTiers <= 0 {
		return dst
	}
	o := &s.sub
	o.begin()
	remaining := budget
	for t := 0; t < numTiers && remaining > 0; t++ {
		o.es = o.es[:0] // one scratch, re-listed per tier
		for i, it := range items {
			if clampTier(tiers[i], numTiers) == t {
				o.list(i, i, it.Value, it.Cost)
			}
		}
		for _, e := range o.sort() {
			if c := items[e.id].Cost; c <= remaining {
				dst = append(dst, int(e.id))
				remaining -= c
			}
		}
	}
	return dst
}

func clampTier(t uint8, numTiers int) int {
	if int(t) >= numTiers {
		return numTiers - 1
	}
	return int(t)
}
