package cluster

import (
	"math"
	"testing"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/knapsack"
	"packetgame/internal/overload"
)

// fuzzRoundPkts builds a small ascending roundPacket batch for seeding.
func fuzzRoundPkts(ids ...int32) []roundPacket {
	pkts := make([]roundPacket, 0, len(ids))
	for k, id := range ids {
		p := &codec.Packet{
			StreamID: int(id),
			Seq:      int64(k),
			PTS:      int64(k) * 40,
			Type:     codec.PictureP,
			Size:     64,
			Codec:    codec.H264,
			Payload:  []byte{0x41, 0x9A, byte(id)},
		}
		rp := roundPacket{stream: int(id), pkt: p}
		if k%2 == 0 {
			rp.truth = codec.Scene{Frame: int64(k), Richness: 0.5, Motion: 0.25, PersonCount: 2}
			rp.hasT = true
		}
		pkts = append(pkts, rp)
	}
	return pkts
}

// FuzzPGCPRoundFrame throws arbitrary bodies — and arbitrary prev-membership
// state — at the delta round-frame decoder. The invariant is the codec
// contract: malformed deltas (gone ids that were never members, added ids
// that already are), duplicate or out-of-range stream ids, hostile varints,
// truncated scenes/packets, and trailing garbage must all return an error;
// nothing may panic. Valid decodes must satisfy the sparse Round invariants
// and keep truth/hasT parallel to the membership. Every input is decoded
// twice — into a fresh record, and into a dirty recycled one that last held
// a larger frame with truth on every entry — and the two must agree, on the
// round or on the error: nothing of a record's past shows through.
func FuzzPGCPRoundFrame(f *testing.F) {
	const m = 64
	dirtyBody := encodeRoundDelta(nil, 99, 77, overload.Mode(3),
		recordRoundPkts(48, func(k int) int32 { return int32(k + 8) }, 40, 1, 5), nil)

	// Fresh connection: everything is an add.
	seed1 := encodeRoundDelta(nil, 0, 8.5, overload.Mode(1), fuzzRoundPkts(0, 3, 7, 63), nil)
	f.Add(uint16(0), seed1)
	// Steady state: identical membership, zero-length deltas.
	seed2 := encodeRoundDelta(nil, 1, 8.5, overload.Mode(0), fuzzRoundPkts(0, 3, 7, 63), []int32{0, 3, 7, 63})
	f.Add(uint16(4), seed2)
	// Churn: one gone, one added.
	seed3 := encodeRoundDelta(nil, 2, 4.0, overload.Mode(2), fuzzRoundPkts(3, 7, 12, 63), []int32{0, 3, 7, 63})
	f.Add(uint16(4), seed3)
	// Empty round against empty membership.
	f.Add(uint16(0), encodeRoundDelta(nil, 3, 1.0, overload.Mode(0), nil, nil))
	// Truncations and mutations of a valid frame.
	f.Add(uint16(0), seed1[:17])
	f.Add(uint16(0), seed1[:len(seed1)/2])
	mut := append([]byte(nil), seed1...)
	mut[18] ^= 0xFF
	f.Add(uint16(0), mut)
	f.Add(uint16(0), []byte{})
	// Hostile varints: max-length gaps and counts.
	// A gone id above every member (60, against members 1 and 5): the merge
	// emits all of prev before it can tell, so the arena must hold them.
	f.Add(uint16(3), encodeRoundDelta(nil, 4, 1.0, overload.Mode(0), fuzzRoundPkts(1, 5), []int32{1, 5, 60}))
	f.Add(uint16(2), []byte{
		0, 0, 0, 0, 0, 0, 0, 0, // round
		0, 0, 0, 0, 0, 0, 0, 0, // bEff
		0,                                                          // mode
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, // gone count ≈ 2^63
	})

	f.Fuzz(func(t *testing.T, prevBits uint16, body []byte) {
		// Derive a deterministic ascending prev membership from prevBits:
		// bit k set → stream 4k+1 was a member last round.
		var prev []int32
		for k := 0; k < 16; k++ {
			if prevBits&(1<<k) != 0 {
				prev = append(prev, int32(4*k+1))
			}
		}
		var msg roundMsg
		err := decodeRoundDelta(body, m, prev, &msg)
		var dirty roundMsg
		if derr := decodeRoundDelta(dirtyBody, m, nil, &dirty); derr != nil {
			t.Fatal(derr)
		}
		derr := decodeRoundDelta(body, m, prev, &dirty)
		if (err == nil) != (derr == nil) || (err != nil && err.Error() != derr.Error()) {
			t.Fatalf("fresh and recycled records disagree: %v vs %v", err, derr)
		}
		if err != nil {
			return // rejected — the only acceptable failure mode
		}
		if err := msg.rnd.Validate(); err != nil {
			t.Fatalf("accepted round violates invariants: %v", err)
		}
		sameRound(t, &msg, &dirty)
		for k, p := range dirty.rnd.Pkts {
			if !within(p.Payload, body) {
				t.Fatalf("packet %d's payload is not a view of the frame body", k)
			}
		}
	})
}

// TestRoundDeltaRejects pins the decoder's hard-error cases with
// deterministic frames (the fuzz target's invariants, minus the fuzzing).
func TestRoundDeltaRejects(t *testing.T) {
	const m = 16
	prev := []int32{2, 5, 9}

	t.Run("gone-not-member", func(t *testing.T) {
		// Encode against a membership that includes 3, decode against one
		// that does not: gone=3 was never a member.
		body := encodeRoundDelta(nil, 0, 1, 0, fuzzRoundPkts(2, 5, 9), []int32{2, 3, 5, 9})
		var msg roundMsg
		if err := decodeRoundDelta(body, m, prev, &msg); err == nil {
			t.Fatal("gone id outside membership must error")
		}
	})
	t.Run("added-already-member", func(t *testing.T) {
		// Encode against empty membership (everything added), decode against
		// prev: added=2 collides with the kept member 2.
		body := encodeRoundDelta(nil, 0, 1, 0, fuzzRoundPkts(2, 5, 9), nil)
		var msg roundMsg
		if err := decodeRoundDelta(body, m, prev, &msg); err == nil {
			t.Fatal("added id already a member must error")
		}
	})
	t.Run("out-of-range", func(t *testing.T) {
		body := encodeRoundDelta(nil, 0, 1, 0, fuzzRoundPkts(2, 5, 9), prev)
		var msg roundMsg
		if err := decodeRoundDelta(body, 9, prev[:2], &msg); err == nil {
			t.Fatal("stream id beyond fleet width must error")
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		body := encodeRoundDelta(nil, 0, 1, 0, fuzzRoundPkts(2, 5, 9), prev)
		body = append(body, 0xAB)
		var msg roundMsg
		if err := decodeRoundDelta(body, m, prev, &msg); err == nil {
			t.Fatal("trailing bytes must error")
		}
	})
	t.Run("offered-not-finite-or-negative", func(t *testing.T) {
		// offered feeds the sender's demand EWMA: NaN would turn the budget
		// split into equal shares for the rest of the run.
		cands := []knapsack.Candidate{{Stream: 2, Value: 0.5, Cost: 1}}
		for _, offered := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
			var msg candidatesMsg
			if err := decodeCandidates(encodeCandidates(nil, 0, offered, cands), m, &msg); err == nil {
				t.Fatalf("offered cost %v accepted", offered)
			}
		}
		var msg candidatesMsg
		if err := decodeCandidates(encodeCandidates(nil, 0, 0, cands), m, &msg); err != nil {
			t.Fatalf("offered cost 0 rejected: %v", err)
		}
	})
	t.Run("report-negative-latency", func(t *testing.T) {
		// The governor reads a negative latency EWMA as "unset".
		if _, err := decodeReport(encodeReport(3, -time.Millisecond, AccDeltas{})); err == nil {
			t.Fatal("negative report latency accepted")
		}
		if _, err := decodeReport(encodeReport(3, 0, AccDeltas{})); err != nil {
			t.Fatalf("zero report latency rejected: %v", err)
		}
	})
	t.Run("roundtrip", func(t *testing.T) {
		pkts := fuzzRoundPkts(1, 2, 5, 9, 15)
		body := encodeRoundDelta(nil, 7, 3.25, overload.Mode(1), pkts, prev)
		var msg roundMsg
		if err := decodeRoundDelta(body, m, prev, &msg); err != nil {
			t.Fatal(err)
		}
		if msg.round != 7 || msg.bEff != 3.25 || msg.mode != overload.Mode(1) {
			t.Fatalf("header mismatch: %+v", msg)
		}
		if msg.rnd.Len() != len(pkts) {
			t.Fatalf("members %d, want %d", msg.rnd.Len(), len(pkts))
		}
		for k, rp := range pkts {
			if int(msg.rnd.IDs[k]) != rp.stream {
				t.Fatalf("member %d is stream %d, want %d", k, msg.rnd.IDs[k], rp.stream)
			}
			got := msg.rnd.Pkts[k]
			if got.Seq != rp.pkt.Seq || string(got.Payload) != string(rp.pkt.Payload) || got.Codec != rp.pkt.Codec {
				t.Fatalf("member %d packet mismatch", k)
			}
			if msg.hasT[k] != rp.hasT {
				t.Fatalf("member %d truth flag %v, want %v", k, msg.hasT[k], rp.hasT)
			}
			if rp.hasT && msg.truth[k] != rp.truth {
				t.Fatalf("member %d truth mismatch", k)
			}
		}
	})
}
