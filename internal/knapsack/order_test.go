package knapsack

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// ratio is the comparator-era ratio the kernel's keys must reproduce: the
// reference side of every equivalence test in this package.
func ratio(it Item) float64 {
	if it.Cost == 0 {
		return math.Inf(1)
	}
	return it.Value / it.Cost
}

// listed is the ordering contract's admission rule, written independently of
// orderKey.
func listed(it Item) bool {
	if math.IsNaN(it.Value) || math.IsNaN(it.Cost) || it.Value <= 0 || it.Cost < 0 {
		return false
	}
	return !math.IsNaN(ratio(it))
}

// referenceOrder is the old implementation: a comparison sort of the listed
// ids by ratio descending, id ascending on exact ties.
func referenceOrder(ids []int, item func(id int) Item) []int {
	var out []int
	for _, id := range ids {
		if listed(item(id)) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		ra, rb := ratio(item(out[a])), ratio(item(out[b]))
		if ra != rb {
			return ra > rb
		}
		return out[a] < out[b]
	})
	return out
}

// kernelOrder lists the ids in the given order and returns the kernel's
// sorted id sequence.
func kernelOrder(o *order, ids []int, item func(id int) Item) []int {
	o.begin()
	for k, id := range ids {
		it := item(id)
		o.list(id, k, it.Value, it.Cost)
	}
	var out []int
	for _, e := range o.sort() {
		if ids[e.pos] != int(e.id) {
			panic("entry lost its position handle")
		}
		out = append(out, int(e.id))
	}
	return out
}

// ratioFamilies are the (value, cost) distributions of the property test;
// each stresses a different part of the kernel (skipped digits, the
// equal-key run finish, the extremes of the key range).
var ratioFamilies = []struct {
	name string
	gen  func(rng *rand.Rand) Item
}{
	{"all-equal", func(*rand.Rand) Item { return Item{Value: 0.75, Cost: 1.5} }},
	{"two-values", func(rng *rand.Rand) Item { return Item{Value: float64(1 + rng.Intn(2)), Cost: 2} }},
	{"zero-cost", func(rng *rand.Rand) Item {
		if rng.Intn(3) == 0 {
			return Item{Value: rng.Float64() + 0.1, Cost: 0}
		}
		return Item{Value: rng.Float64() + 0.1, Cost: rng.Float64() + 0.1}
	}},
	{"denormals", func(rng *rand.Rand) Item {
		return Item{Value: math.Float64frombits(uint64(1 + rng.Intn(1<<20))), Cost: float64(1 + rng.Intn(4))}
	}},
	{"wide", func(rng *rand.Rand) Item {
		return Item{Value: math.Pow(10, rng.Float64()*600-300), Cost: 1}
	}},
	{"one-ulp", func(rng *rand.Rand) Item {
		return Item{Value: math.Float64frombits(math.Float64bits(0.5) + uint64(rng.Intn(4))), Cost: 1}
	}},
	{"uniform", func(rng *rand.Rand) Item { return Item{Value: rng.Float64(), Cost: rng.Float64() * 3} }},
}

// TestOrderKernelMatchesComparator: over every size class around the
// insertion/radix cut-over and every ratio family, with ids listed in
// shuffled order, the kernel's order is the comparison sort's.
func TestOrderKernelMatchesComparator(t *testing.T) {
	sizes := []int{0, 1, 2, radixCut - 1, radixCut, radixCut + 1, 4096, 100_000}
	if testing.Short() {
		sizes = sizes[:len(sizes)-1]
	}
	var o order
	for _, fam := range ratioFamilies {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(int64(n) + 1))
			items := make([]Item, n)
			for i := range items {
				items[i] = fam.gen(rng)
			}
			ids := rng.Perm(n)
			item := func(id int) Item { return items[id] }
			got, want := kernelOrder(&o, ids, item), referenceOrder(ids, item)
			if !reflect.DeepEqual(got, want) {
				for k := range want {
					if k >= len(got) || got[k] != want[k] {
						t.Fatalf("%s n=%d: order diverges at %d of %d (len got %d)", fam.name, n, k, len(want), len(got))
					}
				}
				t.Fatalf("%s n=%d: kernel listed %d, reference %d", fam.name, n, len(got), len(want))
			}
		}
	}
}

// unlistable are the operands the ordering contract turns away, each paired
// with a well-formed partner.
var unlistable = []Item{
	{Value: math.NaN(), Cost: 1},
	{Value: 1, Cost: math.NaN()},
	{Value: math.NaN(), Cost: math.NaN()},
	{Value: 1, Cost: -1},
	{Value: 1, Cost: math.Inf(-1)},
	{Value: math.Inf(1), Cost: math.Inf(1)}, // NaN ratio
	{Value: 0, Cost: 1},
	{Value: math.Copysign(0, -1), Cost: 1},
	{Value: -1, Cost: 1},
}

// TestUnlistableCandidatesAgree is the NaN / signed-zero contract: every
// selector drops the same candidates, so Greedy (over an ascending and over a
// shuffled list), Tiered and Ranked still agree bit for bit when such
// candidates are mixed in, and ±0 costs and underflowed ratios share their
// keys.
func TestUnlistableCandidatesAgree(t *testing.T) {
	for _, it := range unlistable {
		if _, ok := orderKey(it.Value, it.Cost); ok {
			t.Errorf("orderKey lists %+v", it)
		}
	}
	negZero := math.Copysign(0, -1)
	kPos, _ := orderKey(1, 0)
	kNeg, _ := orderKey(2, negZero)
	if kPos != kNeg {
		t.Errorf("+0 and -0 cost keys differ: %x vs %x", kPos, kNeg)
	}
	kUnder, ok := orderKey(math.SmallestNonzeroFloat64, math.MaxFloat64)
	if kZero := ^math.Float64bits(0); !ok || kUnder != kZero {
		t.Errorf("underflowed ratio key %x (listed %v), want +0's %x", kUnder, ok, kZero)
	}

	rng := rand.New(rand.NewSource(5))
	const m = 96
	var g, gs Greedy
	var td Tiered
	rk := NewRanked(m)
	tiers := make([]uint8, m)
	for round := 0; round < 200; round++ {
		items := make([]Item, m)
		for i := range items {
			switch rng.Intn(4) {
			case 0:
				items[i] = unlistable[rng.Intn(len(unlistable))]
			case 1:
				items[i] = Item{Value: rng.Float64() + 0.01, Cost: []float64{0, negZero}[rng.Intn(2)]}
			default:
				items[i] = Item{Value: float64(1+rng.Intn(4)) / 4, Cost: float64(1+rng.Intn(4)) / 2}
			}
		}
		budget := rng.Float64() * 10
		want := g.Select(nil, candsOf(items), budget)
		for _, i := range want {
			if !listed(items[i]) {
				t.Fatalf("round %d: greedy selected unlistable %+v", round, items[i])
			}
		}

		var cands []Candidate
		for _, i := range rng.Perm(m) {
			cands = append(cands, Candidate{Stream: int32(i), Value: items[i].Value, Cost: items[i].Cost})
		}
		if got := gs.Select(nil, cands, budget); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: shuffled %v vs ascending %v", round, got, want)
		}
		if got := td.SelectAppend(nil, items, tiers, 1, budget); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: tiered %v vs greedy %v", round, got, want)
		}
		rk.BeginRound()
		for i, it := range items {
			rk.Offer(i, it.Value, it.Cost, 0)
		}
		if got := rk.SelectAppend(nil, 1, budget); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: ranked %v vs greedy %v", round, got, want)
		}
	}
}

// FuzzOrderKernel feeds raw float bit patterns (NaNs, infinities, negatives,
// denormals) through the kernel in a seed-shuffled listing order and checks
// it against the comparison sort, then that the selectors built on it agree
// (Greedy over the ascending list ≡ over the shuffled one ≡ Ranked).
func FuzzOrderKernel(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 2, 1, 2, 3, 0, 0.5, 1), int64(1), 1.5)
	f.Add(seed(math.NaN(), 1, 1, math.NaN(), 1, -1, math.Inf(1), math.Inf(1)), int64(2), 3.0)
	f.Add(seed(5e-324, 1, 1e300, 1e-300, 1, math.Copysign(0, -1)), int64(3), 0.0)
	var long []float64
	for i := 0; i < 4*radixCut; i++ { // three runs of ties, each past the cut-over
		long = append(long, float64(1+i%3), 2)
	}
	f.Add(seed(long...), int64(4), 40.0)
	f.Fuzz(func(t *testing.T, data []byte, shuffle int64, budget float64) {
		n := len(data) / 16
		if n > 4096 {
			n = 4096
		}
		items := make([]Item, n)
		for i := range items {
			items[i].Value = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			items[i].Cost = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		}
		ids := rand.New(rand.NewSource(shuffle)).Perm(n)
		item := func(id int) Item { return items[id] }
		var o order
		got, want := kernelOrder(&o, ids, item), referenceOrder(ids, item)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kernel order %v, comparator order %v", got, want)
		}
		if math.IsNaN(budget) {
			return
		}
		var g, gs Greedy
		dense := g.Select(nil, candsOf(items), budget)
		var cands []Candidate
		for _, i := range ids {
			cands = append(cands, Candidate{Stream: int32(i), Value: items[i].Value, Cost: items[i].Cost})
		}
		if shuffled := gs.Select(nil, cands, budget); !reflect.DeepEqual(shuffled, dense) {
			t.Fatalf("shuffled %v vs ascending %v", shuffled, dense)
		}
		rk := NewRanked(n)
		rk.BeginRound()
		for _, i := range ids {
			rk.Offer(i, items[i].Value, items[i].Cost, 0)
		}
		if ranked := rk.SelectAppend(nil, 1, budget); !reflect.DeepEqual(ranked, dense) {
			t.Fatalf("ranked %v vs dense %v", ranked, dense)
		}
	})
}

// selectFixture is a fleet of n candidates whose values can be moved for a
// chosen fraction per round, shared by the zero-alloc test and the bench.
type selectFixture struct {
	items []Item
	cands []Candidate
	rng   *rand.Rand
}

func newSelectFixture(n int) *selectFixture {
	fx := &selectFixture{items: make([]Item, n), cands: make([]Candidate, n), rng: rand.New(rand.NewSource(9))}
	for i := range fx.items {
		fx.items[i] = Item{Value: fx.rng.Float64() + 0.01, Cost: 0.5 + 2.5*fx.rng.Float64()}
		fx.cands[i] = Candidate{Stream: int32(i), Value: fx.items[i].Value, Cost: fx.items[i].Cost}
	}
	return fx
}

// churn moves the value of every k-th candidate (k = 1: all of them).
func (fx *selectFixture) churn(k, round int) {
	for i := round % k; i < len(fx.items); i += k {
		v := fx.rng.Float64() + 0.01
		fx.items[i].Value, fx.cands[i].Value = v, v
	}
}

func (fx *selectFixture) ranked(rk *Ranked, dst []int, budget float64) []int {
	rk.BeginRound()
	for i, it := range fx.items {
		rk.Offer(i, it.Value, it.Cost, uint8(i&1))
	}
	return rk.SelectAppend(dst, 2, budget)
}

// TestSelectZeroAlloc: in steady state no selector allocates — every
// implementation of Selector, the dense reference Tiered, and Ranked with
// every candidate dirty every round, the paper's configuration.
func TestSelectZeroAlloc(t *testing.T) {
	const n = 2048
	fx := newSelectFixture(n)
	tiers := make([]uint8, n)
	for i := range tiers {
		tiers[i] = uint8(i & 1)
	}
	var td Tiered
	rk := NewRanked(n)
	dst := make([]int, 0, n)
	round := 0
	sel := func(s Selector, cands []Candidate) func() {
		return func() { dst = s.Select(dst[:0], cands, 64) }
	}
	cases := []struct {
		name string
		run  func()
	}{
		{"greedy", sel(&Greedy{}, fx.cands)},
		{"greedy-prefix", sel(&GreedyPrefix{}, fx.cands)},
		{"round-robin", sel(&RoundRobin{}, fx.cands)},
		{"random", sel(NewRandom(1), fx.cands)},
		{"exact-dp", sel(&ExactDP{Scale: 0.5}, fx.cands[:64])}, // O(n·B/Scale): kept small
		{"tiered", func() { dst = td.SelectAppend(dst[:0], fx.items, tiers, 2, 64) }},
		{"ranked-100pct", func() { dst = fx.ranked(rk, dst[:0], 64) }},
	}
	for _, c := range cases {
		step := func() {
			round++
			fx.churn(1, round)
			c.run()
		}
		for i := 0; i < 4; i++ {
			step() // grow the scratch and rotate Ranked's three buffers
		}
		if avg := testing.AllocsPerRun(50, step); avg != 0 {
			t.Errorf("%s: %.1f allocs per steady-state solve, want 0", c.name, avg)
		}
	}
}

var benchSink []int

// BenchmarkSelect measures one solve per op: Greedy rebuilds its order every
// round; Ranked is shown with 1% of the candidates moving per round (its
// design point) and with all of them moving (exploration on).
func BenchmarkSelect(b *testing.B) {
	for _, n := range []int{1000, 5000, 100_000} {
		fx := newSelectFixture(n)
		budget := float64(n) / 8
		dst := make([]int, 0, n)
		var greedy Greedy
		rk1, rk100 := NewRanked(n), NewRanked(n)
		legs := []struct {
			name  string
			every int
			run   func()
		}{
			{"greedy", 1, func() { dst = greedy.Select(dst[:0], fx.cands, budget) }},
			{"ranked-1pct", 100, func() { dst = fx.ranked(rk1, dst[:0], budget) }},
			{"ranked-100pct", 1, func() { dst = fx.ranked(rk100, dst[:0], budget) }},
		}
		for _, leg := range legs {
			b.Run(fmt.Sprintf("%s/n=%dk", leg.name, n/1000), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fx.churn(leg.every, i)
					b.StartTimer()
					leg.run()
				}
				benchSink = dst
			})
		}
	}
}
