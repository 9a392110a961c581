package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"packetgame/internal/knapsack"
)

// solveFixture is a coordinator reduced to what solveGrant touches: stream
// ownership, the live list, and a round's worth of candidates — no sockets.
type solveFixture struct {
	c     *coord
	items []knapsack.Item        // the dense array a single gate would solve
	byOwn [][]knapsack.Candidate // each live worker's ascending candidate list
}

func newSolveFixture(streams int, workerIDs []int, seed int64) *solveFixture {
	rng := rand.New(rand.NewSource(seed))
	c := &coord{
		members: make(map[int]*member),
		owners:  make([]int, streams),
		cost:    make([]float64, streams),
	}
	for _, id := range workerIDs {
		c.members[id] = &member{id: id}
	}
	c.refreshLive()
	fx := &solveFixture{c: c, items: make([]knapsack.Item, streams), byOwn: make([][]knapsack.Candidate, len(workerIDs))}
	for s := range fx.items {
		k := rng.Intn(len(workerIDs))
		c.owners[s] = c.liveList[k]
		if rng.Intn(4) == 0 {
			continue // idle stream: no candidate
		}
		// Coarse values and costs, so exact ratio ties across workers are
		// common and the id tie-break decides.
		it := knapsack.Item{Value: float64(1+rng.Intn(6)) / 4, Cost: float64(1+rng.Intn(4)) / 2}
		fx.items[s] = it
		fx.byOwn[k] = append(fx.byOwn[k], knapsack.Candidate{Stream: int32(s), Value: it.Value, Cost: it.Cost})
	}
	return fx
}

// gather fills the coordinator's candidate list and cost slots the way the
// round loop does, visiting the workers' lists in the given order.
func (fx *solveFixture) gather(workerOrder []int) {
	c := fx.c
	c.cands = c.cands[:0]
	for _, k := range workerOrder {
		c.cands = append(c.cands, fx.byOwn[k]...)
		for _, cand := range fx.byOwn[k] {
			c.cost[cand.Stream] = cand.Cost
		}
	}
}

func (fx *solveFixture) solve(bEff float64) *flight {
	f := fx.c.nextFlight(0, bEff, 0)
	fx.c.solveGrant(f)
	return f
}

// ownerFilter is the grant scatter this PR replaced: per live worker, the
// global selection filtered by owner, cost looked up per stream.
func (fx *solveFixture) ownerFilter(sel []int) (grants [][]int, granted []float64) {
	c := fx.c
	grants, granted = make([][]int, len(c.liveList)), make([]float64, len(c.liveList))
	for k, id := range c.liveList {
		for _, s := range sel {
			if c.owners[s] == id {
				grants[k] = append(grants[k], s)
				granted[k] += fx.items[s].Cost
			}
		}
	}
	return grants, granted
}

func (fx *solveFixture) assertGrants(t *testing.T, f *flight, what string) {
	t.Helper()
	want, wantCost := fx.ownerFilter(fx.c.sel)
	for k, id := range fx.c.liveList {
		got := fx.c.grants[k]
		if len(got) == 0 && len(want[k]) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want[k]) {
			t.Fatalf("%s: worker %d grant %v, owner filter gives %v", what, id, got, want[k])
		}
		if f.granted[k] != wantCost[k] {
			t.Fatalf("%s: worker %d granted cost %v, owner filter gives %v", what, id, f.granted[k], wantCost[k])
		}
	}
}

// TestSolveGrantGatherOrderFree: the coordinator no longer merges the
// gathered lists into stream order, so the solve must not care how they were
// appended. Forward, reversed and shuffled worker order — and a fully
// shuffled list — all give the single-gate oracle's selection (the dense
// greedy over the whole fleet), the same per-worker grants, and the same
// decision hash.
func TestSolveGrantGatherOrderFree(t *testing.T) {
	const streams, rounds = 3000, 20
	workerIDs := []int{0, 1, 2, 5, 9}
	var oracleSels, clusterSels [][]int
	for r := 0; r < rounds; r++ {
		fx := newSolveFixture(streams, workerIDs, int64(100+r))
		rng := rand.New(rand.NewSource(int64(r)))
		bEff := 20 + 200*rng.Float64()
		var oracle knapsack.Tiered // one tier: the from-scratch greedy over the dense array
		want := oracle.SelectAppend(nil, fx.items, make([]uint8, streams), 1, bEff)
		oracleSels = append(oracleSels, want)

		n := len(workerIDs)
		forward, reversed := make([]int, n), make([]int, n)
		for k := range forward {
			forward[k], reversed[k] = k, n-1-k
		}
		for name, order := range map[string][]int{"forward": forward, "reversed": reversed, "permuted": rng.Perm(n)} {
			fx.gather(order)
			f := fx.solve(bEff)
			if !reflect.DeepEqual(fx.c.sel, want) {
				t.Fatalf("round %d, %s gather: selection differs from the single-gate oracle", r, name)
			}
			fx.assertGrants(t, f, name)
		}
		fx.gather(forward)
		rng.Shuffle(len(fx.c.cands), func(a, b int) { fx.c.cands[a], fx.c.cands[b] = fx.c.cands[b], fx.c.cands[a] })
		f := fx.solve(bEff)
		if !reflect.DeepEqual(fx.c.sel, want) {
			t.Fatalf("round %d, shuffled list: selection differs from the single-gate oracle", r)
		}
		fx.assertGrants(t, f, "shuffled")
		clusterSels = append(clusterSels, append([]int(nil), fx.c.sel...))
	}
	if got, want := OracleHash(clusterSels), OracleHash(oracleSels); got != want {
		t.Fatalf("decision hash %x, oracle %x", got, want)
	}
}

// TestSolveGrantBucketsMatchOwnerFilter pins the single-pass bucketing to
// the O(workers × selected) owner filter it replaced, through the two
// membership races a round can see: a worker marked dead between gather and
// grant (still in the round's live list — it keeps its bucket, the send loop
// skips it, nobody else inherits its streams) and selected streams whose
// owner is not in the live list at all (granted to no one).
func TestSolveGrantBucketsMatchOwnerFilter(t *testing.T) {
	workerIDs := []int{1, 2, 4, 7}
	fx := newSolveFixture(2000, workerIDs, 7)
	c := fx.c
	order := []int{0, 1, 2, 3}
	fx.gather(order)
	f := fx.solve(150)
	if len(c.sel) == 0 {
		t.Fatal("fixture selected nothing")
	}
	fx.assertGrants(t, f, "steady")

	c.members[2].dead = true // died after its candidates were gathered
	f = fx.solve(150)
	fx.assertGrants(t, f, "dead worker")
	total := 0
	for k := range c.liveList {
		total += len(c.grants[k])
	}
	if total != len(c.sel) {
		t.Fatalf("dead worker: %d streams granted of %d selected", total, len(c.sel))
	}

	// Hand a slice of the selected streams to owners outside the live list:
	// one id past the slot table, one inside it that is not live.
	orphaned := 0
	for n, s := range c.sel {
		if n%5 == 0 {
			c.owners[s] = []int{3, 99}[n%2]
			orphaned++
		}
	}
	f = fx.solve(150)
	fx.assertGrants(t, f, "orphaned streams")
	total = 0
	for k := range c.liveList {
		total += len(c.grants[k])
	}
	if total != len(c.sel)-orphaned {
		t.Fatalf("orphaned streams: %d granted, want %d of %d selected", total, len(c.sel)-orphaned, len(c.sel))
	}
}

// TestSolveGrantZeroAlloc: the steady-state decision step — recycled flight,
// global solve, grant bucketing, retire — allocates nothing.
func TestSolveGrantZeroAlloc(t *testing.T) {
	fx := newSolveFixture(16384, []int{0, 1, 2, 3}, 3)
	fx.gather([]int{0, 1, 2, 3})
	c := fx.c
	c.cfg.MaxInFlight = 2
	round := func() {
		f := c.nextFlight(0, 500, 0)
		c.solveGrant(f)
		f.sel = append(f.sel[:0], c.sel...)
		c.inflight = c.inflight[:len(c.inflight)+1]
		for len(c.inflight) >= c.cfg.MaxInFlight {
			c.retireFlight()
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if len(c.sel) == 0 {
		t.Fatal("fixture selected nothing")
	}
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Fatalf("steady-state solve-and-grant allocated %.1f times per round, want 0", avg)
	}
}
