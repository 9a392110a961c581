// Package cluster splits the PacketGame gate into a control plane and
// data-plane workers: a coordinator owns the budget policy, the placement
// ring, and the per-round knapsack solve, while N workers each run the
// existing gate over their slice of streams and speak PGCP (the
// PacketGame cluster protocol) over TCP.
//
// The design invariant is oracle equality: while the cluster is stable, the
// per-round decisions are bit-identical to a single giant gate that owns
// every stream. Workers score their streams locally (temporal estimator,
// feature store, breakers, dependency costs — the exact per-stream state a
// giant gate would hold, kept coherent across migrations by the core
// StreamState transfer layer), and the coordinator reassembles the dense
// per-round item array from their candidate frames and runs the same greedy
// solve over the global stream-ID space, with the same index tie-breaks.
// Splitting the *selection* per-worker could never be bit-identical — a
// knapsack over partitioned budgets is a different optimizer — so only the
// scoring is distributed; the solve stays central and exact.
//
// The coordinator's protocol is a sans-IO state machine (core.go,
// failover.go); link.go is the package's I/O shell — the one file that
// dials, accepts, reads a connection or arms a timer, and the event loop
// that runs the protocol. Workers (worker.go) and standbys (standby.go)
// exchange the frames of proto.go; journal.go is the replica image every
// run counter lives in, and its file.
package cluster

import (
	"cmp"
	"slices"
)

// splitmix64 is the placement hash: cheap, well-mixed, and stable across
// processes (no seed material from the runtime).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ringVNodes is the number of virtual nodes per worker. More vnodes smooth
// the per-worker share at the cost of a larger ring sort on membership
// change; 64 keeps the max/min stream share within ~±20% at 8 workers.
const ringVNodes = 64

type ringPoint struct {
	hash   uint64
	worker int
}

func byHash(p ringPoint, h uint64) int { return cmp.Compare(p.hash, h) }

// Ring is a consistent-hash placement ring with virtual nodes. Stream i
// belongs to the worker owning the first ring point at or after hash(i).
// Membership changes move only the arcs adjacent to the added or removed
// worker's points: every stream that does not change owner keeps its worker,
// which is what bounds state transfer to the affected hash arcs.
type Ring struct {
	points []ringPoint
}

// Add inserts a worker's virtual nodes, keeping the points sorted by hash
// (splitmix64 is a bijection, so no two points share one).
func (r *Ring) Add(worker int) {
	for v := 0; v < ringVNodes; v++ {
		h := splitmix64(uint64(worker)<<20 | uint64(v) | uint64(0xC1)<<56)
		i, _ := slices.BinarySearchFunc(r.points, h, byHash)
		r.points = slices.Insert(r.points, i, ringPoint{hash: h, worker: worker})
	}
}

// Remove deletes a worker's virtual nodes.
func (r *Ring) Remove(worker int) {
	r.points = slices.DeleteFunc(r.points, func(p ringPoint) bool { return p.worker == worker })
}

// Owner returns the worker owning stream i, or -1 on an empty ring.
func (r *Ring) Owner(stream int) int {
	if len(r.points) == 0 {
		return -1
	}
	i, _ := slices.BinarySearchFunc(r.points, splitmix64(uint64(stream)), byHash)
	return r.points[i%len(r.points)].worker // past the last point: wrap to the first
}

// Owners fills dst (length m) with each stream's owner.
func (r *Ring) Owners(dst []int) {
	for i := range dst {
		dst[i] = r.Owner(i)
	}
}
