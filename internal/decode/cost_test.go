package decode

import (
	"math"
	"testing"

	"packetgame/internal/codec"
)

func pkt(t codec.PictureType, gopIndex int) *codec.Packet {
	return &codec.Packet{Type: t, GOPIndex: gopIndex, GOPSize: 25}
}

func TestCostModelOf(t *testing.T) {
	cm := DefaultCosts
	if cm.Of(codec.PictureI) != 2.9 || cm.Of(codec.PictureP) != 1.0 || cm.Of(codec.PictureB) != 0.8 {
		t.Errorf("default costs wrong: %+v", cm)
	}
	if cm.Max() != 2.9 {
		t.Errorf("Max = %v, want 2.9", cm.Max())
	}
}

func TestCostModelCalibration(t *testing.T) {
	// The paper's budget example: one round's budget decodes 11 I-frames or
	// 32 P/B-frames. With B=32 P-units, 32/2.9 ≈ 11 I-frames.
	b := 32.0
	if n := math.Floor(b / DefaultCosts.I); n != 11 {
		t.Errorf("budget of 32 P-units decodes %v I-frames, want 11", n)
	}
}

// Fig 6 stream 2: a fresh I-frame costs exactly 1 I.
func TestTrackerIFrameCost(t *testing.T) {
	tr := NewTracker(DefaultCosts)
	if got := tr.Cost(pkt(codec.PictureI, 0)); got != DefaultCosts.I {
		t.Errorf("I cost = %v, want %v", got, DefaultCosts.I)
	}
}

// Fig 6 stream 3: skipping one reference P makes the next P cost 2P.
func TestTrackerSkippedPChain(t *testing.T) {
	tr := NewTracker(DefaultCosts)
	tr.Commit(pkt(codec.PictureI, 0), true)  // decode the I
	tr.Commit(pkt(codec.PictureP, 1), true)  // decode a P
	tr.Commit(pkt(codec.PictureP, 2), false) // skip a P
	if got := tr.Cost(pkt(codec.PictureP, 3)); got != 2*DefaultCosts.P {
		t.Errorf("P after one skipped P = %v, want %v", got, 2*DefaultCosts.P)
	}
	tr.Commit(pkt(codec.PictureP, 3), false) // skip another
	if got := tr.Cost(pkt(codec.PictureP, 4)); got != 3*DefaultCosts.P {
		t.Errorf("P after two skipped Ps = %v, want %v", got, 3*DefaultCosts.P)
	}
}

// Fig 6 stream 1: with the GOP's I skipped, a B costs 1I + 1B + 1P.
func TestTrackerBWithSkippedI(t *testing.T) {
	tr := NewTracker(DefaultCosts)
	tr.Commit(pkt(codec.PictureI, 0), false) // skip the I
	want := DefaultCosts.I + DefaultCosts.B + DefaultCosts.P
	if got := tr.Cost(pkt(codec.PictureB, 1)); got != want {
		t.Errorf("B with skipped I = %v, want %v", got, want)
	}
}

func TestTrackerDecodeClearsDebt(t *testing.T) {
	tr := NewTracker(DefaultCosts)
	tr.Commit(pkt(codec.PictureI, 0), false)
	tr.Commit(pkt(codec.PictureP, 1), false)
	// Decoding this P pays for I + skipped P + itself...
	want := DefaultCosts.I + 2*DefaultCosts.P
	if got := tr.Cost(pkt(codec.PictureP, 2)); got != want {
		t.Errorf("chained P = %v, want %v", got, want)
	}
	tr.Commit(pkt(codec.PictureP, 2), true)
	// ...after which the next P costs just 1P.
	if got := tr.Cost(pkt(codec.PictureP, 3)); got != DefaultCosts.P {
		t.Errorf("P after clearing = %v, want %v", got, DefaultCosts.P)
	}
}

func TestTrackerNewGOPClearsDebt(t *testing.T) {
	tr := NewTracker(DefaultCosts)
	tr.Commit(pkt(codec.PictureI, 0), false)
	tr.Commit(pkt(codec.PictureP, 1), false)
	tr.Commit(pkt(codec.PictureI, 0), false) // next GOP begins, also skipped
	want := DefaultCosts.I + DefaultCosts.P  // only the new GOP's I is owed
	if got := tr.Cost(pkt(codec.PictureP, 1)); got != want {
		t.Errorf("P in fresh GOP = %v, want %v", got, want)
	}
}

func TestTrackerSkippedBIsFree(t *testing.T) {
	tr := NewTracker(DefaultCosts)
	tr.Commit(pkt(codec.PictureI, 0), true)
	tr.Commit(pkt(codec.PictureB, 1), false) // skipped B: not a reference
	if got := tr.Cost(pkt(codec.PictureP, 2)); got != DefaultCosts.P {
		t.Errorf("P after skipped B = %v, want %v (B must add no debt)", got, DefaultCosts.P)
	}
}

func TestTrackerBPrepaysNextReference(t *testing.T) {
	tr := NewTracker(DefaultCosts)
	tr.Commit(pkt(codec.PictureI, 0), true)
	// Selecting the B pays B + its forward reference P.
	if got := tr.Cost(pkt(codec.PictureB, 1)); got != DefaultCosts.B+DefaultCosts.P {
		t.Errorf("B cost = %v, want %v", got, DefaultCosts.B+DefaultCosts.P)
	}
	tr.Commit(pkt(codec.PictureB, 1), true)
	// The next P arrives already decoded: zero marginal cost.
	if got := tr.Cost(pkt(codec.PictureP, 2)); got != 0 {
		t.Errorf("prepaid P cost = %v, want 0", got)
	}
	tr.Commit(pkt(codec.PictureP, 2), false)
	// Prepayment consumed: a later P costs 1P again (chain cleared because
	// the prepaid P was effectively decoded).
	if got := tr.Cost(pkt(codec.PictureP, 3)); got != DefaultCosts.P {
		t.Errorf("post-prepaid P cost = %v, want %v", got, DefaultCosts.P)
	}
}

func TestTrackerMidGOPJoinOwesI(t *testing.T) {
	tr := NewTracker(DefaultCosts)
	// First packet ever observed is a mid-GOP P: the I was never seen.
	want := DefaultCosts.I + DefaultCosts.P
	if got := tr.Cost(pkt(codec.PictureP, 5)); got != want {
		t.Errorf("mid-GOP join P = %v, want %v", got, want)
	}
}

func TestMultiTrackerCostsAndCommit(t *testing.T) {
	mt := NewMultiTracker(3, DefaultCosts)
	var round1 codec.Round
	round1.FromDense([]*codec.Packet{pkt(codec.PictureI, 0), pkt(codec.PictureI, 0), nil})
	costs, err := mt.CostsRound(nil, &round1)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 2 || costs[0] != DefaultCosts.I || costs[1] != DefaultCosts.I {
		t.Errorf("round1 costs = %v, want one I cost per active stream", costs)
	}
	if err := mt.CommitRound(&round1, []bool{true, false}); err != nil {
		t.Fatal(err)
	}
	var round2 codec.Round
	round2.FromDense([]*codec.Packet{pkt(codec.PictureP, 1), pkt(codec.PictureP, 1), nil})
	costs, err = mt.CostsRound(costs[:0], &round2)
	if err != nil {
		t.Fatal(err)
	}
	if costs[0] != DefaultCosts.P {
		t.Errorf("stream 0 (decoded I) P cost = %v, want %v", costs[0], DefaultCosts.P)
	}
	if costs[1] != DefaultCosts.I+DefaultCosts.P {
		t.Errorf("stream 1 (skipped I) P cost = %v, want %v", costs[1], DefaultCosts.I+DefaultCosts.P)
	}
}

func TestMultiTrackerLengthMismatch(t *testing.T) {
	mt := NewMultiTracker(2, DefaultCosts)
	var wide codec.Round
	wide.FromDense(make([]*codec.Packet, 3))
	if _, err := mt.CostsRound(nil, &wide); err == nil {
		t.Error("CostsRound must reject a round of another width")
	}
	var r codec.Round
	r.FromDense([]*codec.Packet{pkt(codec.PictureI, 0), nil})
	if err := mt.CommitRound(&r, make([]bool, 2)); err == nil {
		t.Error("CommitRound must reject a mask not parallel to the round")
	}
	if mt.Len() != 2 {
		t.Errorf("Len = %d, want 2", mt.Len())
	}
	if mt.Stream(1) == nil {
		t.Error("Stream(1) must exist")
	}
}

// Property: over a long random decision sequence the tracker's quoted cost is
// always at least the packet's own cost (unless prepaid) and debt never goes
// negative.
func TestTrackerCostLowerBound(t *testing.T) {
	tr := NewTracker(DefaultCosts)
	e := codec.NewEncoder(codec.EncoderConfig{GOPSize: 12, BFrames: 2}, 3)
	for i := 0; i < 2000; i++ {
		p := e.Encode(codec.Scene{Motion: 0.3})
		cost := tr.Cost(p)
		if cost < 0 {
			t.Fatalf("packet %d: negative cost %v", i, cost)
		}
		if cost != 0 && cost < DefaultCosts.Of(p.Type)-1e-12 {
			t.Fatalf("packet %d (%v): cost %v below own cost", i, p.Type, cost)
		}
		tr.Commit(p, i%3 == 0)
	}
}
