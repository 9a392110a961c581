package knapsack

import "math"

// This file is the package's one ordering kernel. Every ratio order in the
// tree — Greedy, GreedyPrefix, Tiered, Ranked's staged set, FractionalOPT,
// and through Greedy the cluster coordinator's global solve — lists its candidates as entries and sorts them here.
//
// Ordering contract: ratio value/cost descending (a zero cost ranks as +Inf,
// ahead of every finite ratio), id ascending among exactly equal ratios.
// That is a strict total order over distinct ids, so the sorted sequence is
// unique — it does not depend on the order the candidates were listed in —
// and merging two sorted disjoint sequences reproduces the sort of their
// union. A candidate is listed only if value > 0, cost >= 0 and the ratio is
// a number: NaN values or costs, negative costs and Inf/Inf never enter the
// order, so no comparison ever sees a NaN.

// entry is one listed candidate. key is the ratio's IEEE-754 bit image
// inverted, so ascending uint64 order is descending ratio order: listed
// ratios lie in [+0, +Inf], where the bit image is monotone, and −0 cannot
// occur (a −0 cost takes the zero-cost branch, a positive value over a
// positive cost underflows to +0). pos is the caller's handle back to the
// candidate — its position in a candidate list; dense callers and Ranked
// address by id and leave it unused.
type entry struct {
	key uint64
	id  int32
	pos int32
}

// orderKey returns the sort key of a (value, cost) candidate and whether the
// candidate is listed at all.
func orderKey(value, cost float64) (uint64, bool) {
	if !(value > 0 && cost >= 0) { // also rejects NaN in either operand
		return 0, false
	}
	r := math.Inf(1)
	if cost > 0 {
		r = value / cost
	}
	if r != r { // Inf/Inf
		return 0, false
	}
	return ^math.Float64bits(r), true
}

func entryLess(a, b entry) bool {
	return a.key < b.key || (a.key == b.key && a.id < b.id)
}

// radixCut is the listing size from which the byte-radix beats insertion
// sort: the radix pays a fixed ~2 µs for clearing and prefix-summing its
// histograms, which insertion sort needs about a hundred entries to spend.
const radixCut = 96

// sortEntries sorts es by (key, id) ascending; tmp is scratch with
// len(tmp) >= len(es). Nothing is allocated.
func sortEntries(es, tmp []entry) {
	if len(es) < radixCut {
		insertionSort(es)
		return
	}
	radixSort(es, tmp)
}

// radixSort is an LSD byte-radix over key — all eight histograms gathered
// in one pass, digits every key shares skipped — after which, because the
// radix is stable only in listing order, each run of equal keys is put in id
// order.
func radixSort(es, tmp []entry) {
	n := len(es)
	var hist [8][256]uint32
	for i := range es {
		k := es[i].key
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	src, dst := es, tmp[:n]
	for d := range hist {
		h, shift := &hist[d], uint(d)*8
		if h[byte(es[0].key>>shift)] == uint32(n) {
			continue // every key has this digit: the pass would be a copy
		}
		var sum uint32
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		for _, e := range src {
			b := byte(e.key >> shift)
			dst[h[b]] = e
			h[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &es[0] {
		copy(es, src)
	}
	for i := 1; i < n; i++ {
		if es[i].key != es[i-1].key {
			continue
		}
		lo := i - 1
		for i+1 < n && es[i+1].key == es[lo].key {
			i++
		}
		sortRunByID(es[lo:i+1], tmp)
	}
}

// sortRunByID orders a run of equal-key entries by id. Runs are normally a
// handful of exact ties; a long one (a fleet of identical candidates) goes
// back through the radix with the id standing in as key — ids are unique,
// so that pass finds no ties of its own.
func sortRunByID(run, tmp []entry) {
	if len(run) < radixCut {
		insertionSort(run)
		return
	}
	sorted := true
	for i := 1; i < len(run) && sorted; i++ {
		sorted = run[i-1].id <= run[i].id
	}
	if sorted {
		return
	}
	key := run[0].key
	for i := range run {
		run[i].key = uint64(uint32(run[i].id))
	}
	sortEntries(run, tmp)
	for i := range run {
		run[i].key = key
	}
}

func insertionSort(es []entry) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i
		for ; j > 0 && entryLess(e, es[j-1]); j-- {
			es[j] = es[j-1]
		}
		es[j] = e
	}
}

// order is the per-selector scratch around the kernel: the listing and the
// radix's second buffer, both sized by the number of candidates listed (not
// by the fleet), reused across rounds so a steady-state solve allocates
// nothing. Safe because the gate serializes Select calls under its mutex.
type order struct {
	es   []entry
	tmp  []entry
	peak int // largest listing sorted since begin
}

// orderShrinkFloor is the capacity below which order scratch is never
// reallocated downward: shrinking tiny buffers only causes churn.
const orderShrinkFloor = 1024

// begin opens a solve with an empty listing. So a transient spike does not
// pin a giant buffer for the process lifetime, the scratch is reallocated
// downward once a whole solve's largest listing stayed below a quarter of
// the retained capacity.
func (o *order) begin() {
	if c := cap(o.es); c > orderShrinkFloor && o.peak < c/4 {
		o.es, o.tmp = make([]entry, 0, o.peak), nil
	}
	o.es, o.peak = o.es[:0], 0
}

// list appends candidate id to the listing if the ordering contract admits
// it.
func (o *order) list(id, pos int, value, cost float64) {
	if key, ok := orderKey(value, cost); ok {
		o.es = append(o.es, entry{key: key, id: int32(id), pos: int32(pos)})
	}
}

// sort orders the listing and returns it.
func (o *order) sort() []entry {
	n := len(o.es)
	if n > o.peak {
		o.peak = n
	}
	if cap(o.tmp) < n {
		o.tmp = make([]entry, cap(o.es))
	}
	sortEntries(o.es, o.tmp[:n])
	return o.es
}
