package knapsack

// Ranked is the incremental counterpart of Greedy and Tiered: a persistent
// score-ordered candidate list that survives across rounds so the per-round
// sorting cost scales with *churn* (candidates whose value or cost changed
// since the previous round) instead of the fleet size.
//
// Protocol per round:
//
//	rk.BeginRound()
//	for every selectable candidate: rk.Offer(id, value, cost)
//	sel = rk.SelectAppend(dst, tiers, numTiers, budget)
//
// Offer compares the candidate against its stored (value, cost): unchanged
// candidates that were also offered last round keep their position in the
// ordered list for free; changed or newly (re)appearing candidates are
// staged. SelectAppend runs the ordering kernel over the staged set only —
// linear in the d dirty candidates — and merges it with the surviving span
// of last round's order in one linear pass. Candidates *not* offered this
// round drop out during the merge, so absence (idle stream, quarantine,
// admission shed) needs no explicit delete call and a revived candidate is
// simply re-staged.
//
// What Ranked saves is therefore proportional to the candidates whose
// (value, cost) did NOT move. With the gate's exploration bonus on, every
// active stream's value moves every round, the staged set is the whole
// active set, and a round is one kernel sort of it plus a merge that drops
// all of last round's order — the same work as Greedy's solve, which
// is why that sort must not be a comparison sort.
//
// The resulting order is bit-identical to a from-scratch sort because the
// kernel's order is a strict total order (order.go), so a merge of two
// internally sorted disjoint sequences reproduces the full sort exactly.
// The selection walk then replicates Greedy's ratio-order fill pass
// (numTiers == 1) or Tiered's strict-priority cascade (per-tier lists,
// lower tiers skipped once the remaining budget is exhausted), preserving
// the Lemma-1 bound per pool.
//
// Candidates the kernel does not list (value <= 0, NaN, negative cost) are
// dropped at Offer. Per-id state is persistent and the ordered lists carry
// their keys inline, sized by the candidates offered, so steady-state
// rounds allocate nothing. Not safe for concurrent use.
type Ranked struct {
	n     int
	round int64

	// Per-candidate state, indexed by id.
	value []float64
	cost  []float64
	tier  []uint8
	stamp []int64 // round the candidate was last offered and listed
	dirty []bool  // staged this round (changed / re-appeared)

	// Per-tier ordered candidate lists from the last completed round, this
	// round's staged entries, and the spare buffer that serves first as the
	// kernel's scratch and then as the merge output.
	live   [][]entry
	staged [][]entry
	merge  []entry
}

// NewRanked creates an incremental selector for ids in [0, n).
func NewRanked(n int) *Ranked {
	return &Ranked{
		n:     n,
		value: make([]float64, n),
		cost:  make([]float64, n),
		tier:  make([]uint8, n),
		stamp: make([]int64, n),
		dirty: make([]bool, n),
	}
}

// BeginRound opens a new round; every candidate for this round must then be
// Offered before SelectAppend.
func (r *Ranked) BeginRound() {
	r.round++
}

// growTiers extends the per-tier live and staged lists to numTiers tiers.
func (r *Ranked) growTiers(numTiers int) {
	for len(r.live) < numTiers {
		r.live = append(r.live, nil)
		r.staged = append(r.staged, nil)
	}
}

// Offer registers candidate id for this round's selection with the given
// value, cost, and priority tier. A candidate whose (value, cost, tier) is
// unchanged since last round's offer keeps its ordered position for free;
// anything else is staged for the incremental re-sort. Offers the ordering
// kernel does not list (value <= 0, NaN, negative cost) are dropped, exactly
// as Greedy drops them. ids must be unique within a round; tier must be <
// the numTiers later passed to SelectAppend.
func (r *Ranked) Offer(id int, value, cost float64, tier uint8) {
	if !(value > 0) {
		return // never listed — and a zeroed slot must not pass for a survivor
	}
	if r.stamp[id] == r.round-1 && r.value[id] == value && r.cost[id] == cost &&
		r.tier[id] == tier && !r.dirty[id] {
		// Survivor: same score as the position it already holds in live.
		r.stamp[id] = r.round
		return
	}
	key, ok := orderKey(value, cost)
	if !ok {
		return
	}
	r.stamp[id] = r.round
	r.value[id] = value
	r.cost[id] = cost
	r.tier[id] = tier
	r.dirty[id] = true
	r.growTiers(int(tier) + 1)
	r.staged[tier] = append(r.staged[tier], entry{key: key, id: int32(id)})
}

// mergeTier folds tier t's staged entries into its live order: survivors of
// the previous order (offered again this round, not re-staged) keep their
// relative positions, dead entries drop, staged entries merge in sorted
// position. Returns the new live list.
func (r *Ranked) mergeTier(t int) []entry {
	st := r.staged[t]
	if cap(r.merge) < len(st) {
		r.merge = append(r.merge[:0], st...) // grown with append's headroom; the contents are scratch
	}
	sortEntries(st, r.merge[:len(st)])
	old := r.live[t]
	out := r.merge[:0]
	oi, si := 0, 0
	for oi < len(old) && si < len(st) {
		o := old[oi]
		if r.stamp[o.id] != r.round || r.dirty[o.id] {
			oi++ // dead or re-staged: drop from the surviving span
			continue
		}
		if entryLess(o, st[si]) {
			out = append(out, o)
			oi++
		} else {
			out = append(out, st[si])
			si++
		}
	}
	for ; oi < len(old); oi++ {
		if o := old[oi]; r.stamp[o.id] == r.round && !r.dirty[o.id] {
			out = append(out, o)
		}
	}
	out = append(out, st[si:]...)
	// Swap buffers: old becomes next round's merge scratch.
	r.merge = old[:0]
	r.live[t] = out
	for _, e := range st {
		r.dirty[e.id] = false
	}
	r.staged[t] = st[:0]
	return out
}

// SelectAppend closes the round: it folds the staged candidates into the
// persistent order and appends the chosen ids to dst. With numTiers == 1
// the walk is exactly Greedy.Select over the offered candidates; with
// more tiers it is Tiered.SelectAppend's strict-priority cascade, including
// its rule that once the remaining budget hits zero, lower tiers are not
// visited at all.
func (r *Ranked) SelectAppend(dst []int, numTiers int, budget float64) []int {
	if numTiers < 1 {
		numTiers = 1
	}
	r.growTiers(numTiers)
	if len(r.live) > numTiers {
		numTiers = len(r.live) // still merge tiers seen in earlier rounds
	}
	remaining := budget
	for t := 0; t < numTiers; t++ {
		if t > 0 && remaining <= 0 {
			// Tiered's guard: later tiers never run on an exhausted budget
			// (a single-pool Greedy walk, by contrast, always completes and
			// may still pick zero-cost candidates).
			if len(r.staged[t]) > 0 || len(r.live[t]) > 0 {
				r.mergeTier(t) // keep persistence current even when skipped
			}
			continue
		}
		for _, e := range r.mergeTier(t) {
			if c := r.cost[e.id]; c <= remaining {
				dst = append(dst, int(e.id))
				remaining -= c
			}
		}
	}
	return dst
}
