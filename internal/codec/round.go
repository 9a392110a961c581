package codec

import (
	"fmt"
	"sort"
)

// Round is the sparse per-round packet set: only the streams that actually
// produced a packet this round appear, as a strictly-ascending id list with
// a parallel packet slice. It is the O(active) replacement for the dense
// `[]*Packet` round array (nil-padded to fleet width) that every producer
// used to allocate and every consumer used to walk: a 1%-active fleet now
// touches 1% of the entries end-to-end.
//
// Invariants (checked by Validate):
//   - IDs is strictly ascending, every id in [0, M)
//   - len(IDs) == len(Pkts) and no Pkts entry is nil
//
// A Round is a reusable scratch value: Reset + Append refill it without
// allocating once the slices have grown to steady-state capacity.
type Round struct {
	// M is the fleet width the round was drawn from — the length the dense
	// representation of this round would have.
	M int
	// IDs holds the active stream ids, strictly ascending.
	IDs []int32
	// Pkts holds the packets, parallel to IDs; Pkts[k] is stream IDs[k]'s
	// packet and is never nil.
	Pkts []*Packet
}

// Reset clears the round for reuse at fleet width m, keeping capacity.
func (r *Round) Reset(m int) {
	r.M = m
	r.IDs = r.IDs[:0]
	// Drop packet refs so a pooled Round does not pin the previous round's
	// payloads alive.
	for i := range r.Pkts {
		r.Pkts[i] = nil
	}
	r.Pkts = r.Pkts[:0]
}

// Len returns the number of active streams in the round.
func (r *Round) Len() int { return len(r.IDs) }

// Append adds one (id, packet) entry. Ids must be appended in strictly
// ascending order; Validate catches violations.
func (r *Round) Append(id int32, p *Packet) {
	r.IDs = append(r.IDs, id)
	r.Pkts = append(r.Pkts, p)
}

// Find returns the position of id in IDs, or -1 when the stream is idle
// this round.
func (r *Round) Find(id int32) int {
	k := sort.Search(len(r.IDs), func(i int) bool { return r.IDs[i] >= id })
	if k < len(r.IDs) && r.IDs[k] == id {
		return k
	}
	return -1
}

// Get returns stream id's packet, or nil when the stream is idle this round.
func (r *Round) Get(id int32) *Packet {
	if k := r.Find(id); k >= 0 {
		return r.Pkts[k]
	}
	return nil
}

// Validate checks the Round invariants.
func (r *Round) Validate() error {
	if len(r.IDs) != len(r.Pkts) {
		return fmt.Errorf("codec: round ids/pkts length mismatch: %d vs %d", len(r.IDs), len(r.Pkts))
	}
	prev := int32(-1)
	for k, id := range r.IDs {
		if id < 0 || int(id) >= r.M {
			return fmt.Errorf("codec: round stream id %d out of range [0,%d)", id, r.M)
		}
		if id <= prev {
			return fmt.Errorf("codec: round stream ids not strictly ascending at %d (%d after %d)", k, id, prev)
		}
		if r.Pkts[k] == nil {
			return fmt.Errorf("codec: round stream %d has nil packet", id)
		}
		prev = id
	}
	return nil
}

// FromDense refills the round from a dense nil-padded packet array. This is
// the adapter for producers that have not gone sparse; it is O(m) by nature.
func (r *Round) FromDense(pkts []*Packet) {
	r.Reset(len(pkts))
	for i, p := range pkts {
		if p != nil {
			r.Append(int32(i), p)
		}
	}
}
