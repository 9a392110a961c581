// Package decode simulates the video decoder stage: heterogeneous per-picture
// decode costs, GOP reference-dependency tracking (Fig 6 of the paper), scene
// recovery from packet payloads, and a calibrated CPU-burning decoder for
// wall-clock concurrency benchmarks.
package decode

import (
	"fmt"

	"packetgame/internal/codec"
)

// CostModel gives the decoding cost of each picture type in abstract decode
// units. The defaults are calibrated to the paper's running example (§4.1):
// an edge budget decodes 11 I-frames or 32 P/B-frames per round, so
// cost(I)/cost(P) = 32/11 ≈ 2.9.
type CostModel struct {
	I float64
	P float64
	B float64
}

// DefaultCosts is the paper-calibrated cost model.
var DefaultCosts = CostModel{I: 2.9, P: 1.0, B: 0.8}

// Of returns the cost of decoding one frame of the given type, ignoring
// dependencies.
func (c CostModel) Of(t codec.PictureType) float64 {
	switch t {
	case codec.PictureI:
		return c.I
	case codec.PictureB:
		return c.B
	default:
		return c.P
	}
}

// Max returns the maximal single-packet cost (the c in the paper's 1-c/B
// approximation ratio); note a dependent packet's total cost can exceed it.
func (c CostModel) Max() float64 {
	m := c.I
	if c.P > m {
		m = c.P
	}
	if c.B > m {
		m = c.B
	}
	return m
}

// Tracker tracks decoding dependencies for one stream. Skipped reference
// frames accumulate as pending dependencies: selecting a later dependent
// packet must pay for decoding them too (Fig 6), while selecting an I-frame
// or crossing into a new GOP clears the debt.
type Tracker struct {
	// The int ahead of the three bools packs a Tracker into 40 bytes; a
	// MultiTracker holds one per configured stream.
	cm CostModel

	// undecodedPs counts skipped reference P-frames since the last decoded
	// reference in the current GOP.
	undecodedPs int
	// undecodedI reports that the current GOP's I-frame was skipped.
	undecodedI bool
	// nextRefPrepaid reports that the upcoming reference frame was already
	// decoded (paid for) as the forward dependency of a selected B-frame.
	nextRefPrepaid bool
	// sawAny reports whether any packet has been observed yet (mid-GOP
	// joins owe an I-frame they never saw).
	sawAny bool
}

// NewTracker creates a dependency tracker with the given cost model.
func NewTracker(cm CostModel) *Tracker { return &Tracker{cm: cm} }

// chainCost is the cost of decoding all pending reference dependencies.
func (t *Tracker) chainCost() float64 {
	var c float64
	if t.undecodedI {
		c += t.cm.I
	}
	c += float64(t.undecodedPs) * t.cm.P
	return c
}

// Cost returns the total cost of decoding p now, including every undecoded
// reference frame it depends on. It does not change tracker state.
func (t *Tracker) Cost(p *codec.Packet) float64 {
	switch p.Type {
	case codec.PictureI:
		return t.cm.I
	case codec.PictureP:
		if p.Keyframe() {
			// Defensive: a P at GOP start decodes against the prior GOP.
			return t.cm.P
		}
		if t.nextRefPrepaid {
			return 0 // already decoded as a B-frame's forward reference
		}
		return t.chain(p) + t.cm.P
	case codec.PictureB:
		// Backward chain + the B itself + its forward reference (next P).
		return t.chain(p) + t.cm.B + t.cm.P
	}
	return t.cm.P
}

// chain computes the backward dependency cost for p, accounting for a
// mid-GOP join (no I ever seen) as owing one I-frame.
func (t *Tracker) chain(p *codec.Packet) float64 {
	c := t.chainCost()
	if !t.sawAny && !p.Keyframe() {
		c += t.cm.I
	}
	return c
}

// Commit records the gating decision for p and updates dependency state.
// It must be called exactly once per observed packet, in stream order.
func (t *Tracker) Commit(p *codec.Packet, decoded bool) {
	if p.Keyframe() {
		// New GOP: prior debts are irrelevant.
		t.undecodedI = false
		t.undecodedPs = 0
		t.nextRefPrepaid = false
	}
	switch p.Type {
	case codec.PictureI:
		if decoded {
			t.undecodedI = false
			t.undecodedPs = 0
		} else {
			t.undecodedI = true
		}
	case codec.PictureP:
		prepaid := t.nextRefPrepaid
		t.nextRefPrepaid = false
		if decoded || prepaid {
			// The whole backward chain was decoded with it.
			t.undecodedI = false
			t.undecodedPs = 0
		} else {
			t.undecodedPs++
		}
	case codec.PictureB:
		if decoded {
			// Backward chain paid; the forward reference is decoded too.
			t.undecodedI = false
			t.undecodedPs = 0
			t.nextRefPrepaid = true
		}
		// Skipped B-frames are not references: no debt.
	}
	t.sawAny = true
}

// MultiTracker tracks dependencies for m concurrent streams indexed 0..m-1.
// The trackers are one flat array of values, not m heap objects.
type MultiTracker struct {
	trackers []Tracker
}

// NewMultiTracker creates trackers for m streams.
func NewMultiTracker(m int, cm CostModel) *MultiTracker {
	mt := &MultiTracker{trackers: make([]Tracker, m)}
	for i := range mt.trackers {
		mt.trackers[i].cm = cm
	}
	return mt
}

// Len returns the number of tracked streams.
func (mt *MultiTracker) Len() int { return len(mt.trackers) }

// Stream returns the tracker for stream i.
func (mt *MultiTracker) Stream(i int) *Tracker { return &mt.trackers[i] }

// CostsRound computes the dependency-inclusive decode cost of each packet of
// a round: one entry per active stream, parallel to r.IDs, appended to dst
// (which may be nil), so a caller that recycles its buffer pays no
// allocation per round. O(active).
func (mt *MultiTracker) CostsRound(dst []float64, r *codec.Round) ([]float64, error) {
	if r.M != len(mt.trackers) {
		return dst, fmt.Errorf("decode: round width %d for %d streams", r.M, len(mt.trackers))
	}
	for k, id := range r.IDs {
		dst = append(dst, mt.trackers[id].Cost(r.Pkts[k]))
	}
	return dst, nil
}

// CommitRound records a round's decisions: selected[k] reports whether
// stream r.IDs[k]'s packet was decoded. Idle streams carry no dependency
// update.
func (mt *MultiTracker) CommitRound(r *codec.Round, selected []bool) error {
	if r.M != len(mt.trackers) || len(selected) != r.Len() {
		return fmt.Errorf("decode: round commit length mismatch")
	}
	for k, id := range r.IDs {
		mt.trackers[id].Commit(r.Pkts[k], selected[k])
	}
	return nil
}
