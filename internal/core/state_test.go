package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"packetgame/internal/codec"
	"packetgame/internal/predictor"
)

// driveStateRounds advances the gate through deterministic rounds with mixed
// idle streams, GOP structure, decode failures, and 0/1 feedback.
func driveStateRounds(t *testing.T, g *Gate, m, rounds int, seed int64, gopIdx []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]*codec.Packet, m)
	for r := 0; r < rounds; r++ {
		for i := range pkts {
			pkts[i] = nil
			if rng.Float64() < 0.25 {
				continue
			}
			p := &codec.Packet{StreamID: i, GOPSize: 8, GOPIndex: gopIdx[i], Size: 200 + rng.Intn(4000)}
			if gopIdx[i] == 0 {
				p.Type = codec.PictureI
			} else {
				p.Type = codec.PictureP
			}
			gopIdx[i] = (gopIdx[i] + 1) % 8
			pkts[i] = p
		}
		sel, err := decideDense(g, pkts)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		necessary := make([]bool, len(sel))
		failed := make([]bool, len(sel))
		for k, i := range sel {
			necessary[k] = (r+i)%3 != 0
			failed[k] = (r+i)%17 == 0
		}
		if err := g.FeedbackFull(sel, necessary, failed, nil); err != nil {
			t.Fatalf("round %d feedback: %v", r, err)
		}
	}
}

func stateTestGate(t *testing.T, m int, withPred bool) *Gate {
	t.Helper()
	cfg := Config{
		Streams: m, Window: 4, Budget: 9, UseTemporal: true,
		Breaker: &BreakerConfig{FailureThreshold: 2, GapThreshold: 6, Cooldown: 4},
	}
	if withPred {
		cfg.Predictor = tinyPredictor(t, 1, true)
	}
	g, err := NewGate(cfg)
	if err != nil {
		t.Fatalf("NewGate: %v", err)
	}
	return g
}

// TestStreamStateMigrationEquivalence is the lossless-migration contract:
// after N rounds, exporting every stream from a donor gate into a fresh gate
// (clock-aligned via AdvanceTo) must (a) re-export byte-identical states and
// (b) leave the recipient making bit-identical decisions to the donor for
// all subsequent rounds.
func TestStreamStateMigrationEquivalence(t *testing.T) {
	for _, withPred := range []bool{false, true} {
		name := "temporal-only"
		if withPred {
			name = "with-predictor"
		}
		t.Run(name, func(t *testing.T) {
			const m, warm, tail = 24, 60, 200
			donor := stateTestGate(t, m, withPred)
			gop := make([]int, m)
			driveStateRounds(t, donor, m, warm, 77, gop)

			recip := stateTestGate(t, m, withPred)
			if (recip.store != nil) != withPred {
				t.Fatalf("feature store allocated = %v with predictor = %v", recip.store != nil, withPred)
			}
			if err := recip.AdvanceTo(donor.ClockRound()); err != nil {
				t.Fatalf("AdvanceTo: %v", err)
			}
			for i := 0; i < m; i++ {
				st, err := donor.ExportStream(i)
				if err != nil {
					t.Fatalf("export %d: %v", i, err)
				}
				if err := recip.ImportStream(i, st); err != nil {
					t.Fatalf("import %d: %v", i, err)
				}
				back, err := recip.ExportStream(i)
				if err != nil {
					t.Fatalf("re-export %d: %v", i, err)
				}
				if !reflect.DeepEqual(st, back) {
					t.Fatalf("stream %d state not preserved\nexported: %+v\nreimport: %+v", i, st, back)
				}
			}

			// Both gates continue from identical state: same packets, same
			// feedback, identical selections every round.
			rng := rand.New(rand.NewSource(99))
			pkts := make([]*codec.Packet, m)
			gop2 := append([]int(nil), gop...)
			for r := 0; r < tail; r++ {
				for i := range pkts {
					pkts[i] = nil
					if rng.Float64() < 0.25 {
						continue
					}
					p := &codec.Packet{StreamID: i, GOPSize: 8, GOPIndex: gop2[i], Size: 200 + rng.Intn(4000)}
					if gop2[i] == 0 {
						p.Type = codec.PictureI
					} else {
						p.Type = codec.PictureP
					}
					gop2[i] = (gop2[i] + 1) % 8
					pkts[i] = p
				}
				selD, err1 := decideDense(donor, pkts)
				selR, err2 := decideDense(recip, pkts)
				if err1 != nil || err2 != nil {
					t.Fatalf("tail round %d: donor=%v recipient=%v", r, err1, err2)
				}
				if !reflect.DeepEqual(selD, selR) {
					t.Fatalf("tail round %d: selections diverged\ndonor:     %v\nrecipient: %v", r, selD, selR)
				}
				necessary := make([]bool, len(selD))
				failed := make([]bool, len(selD))
				for k, i := range selD {
					necessary[k] = (r+i)%3 != 0
					failed[k] = (r+i)%23 == 0
				}
				if err := donor.FeedbackFull(selD, necessary, failed, nil); err != nil {
					t.Fatalf("donor feedback %d: %v", r, err)
				}
				if err := recip.FeedbackFull(selR, necessary, failed, nil); err != nil {
					t.Fatalf("recipient feedback %d: %v", r, err)
				}
			}
		})
	}
}

// TestStorelessStateCrossImport: a gate without a predictor keeps no feature
// store, yet its stream states stay interchangeable with a store-bearing
// gate's. Its export carries the fresh row and imports into a gate with a
// store; a full row imports into it and is dropped; everything else moves
// intact both ways.
func TestStorelessStateCrossImport(t *testing.T) {
	const m = 12
	storeless := stateTestGate(t, m, false)
	withStore := stateTestGate(t, m, true)
	gop := make([]int, m)
	driveStateRounds(t, storeless, m, 40, 3, gop)
	gop2 := make([]int, m)
	driveStateRounds(t, withStore, m, 40, 4, gop2)

	export := func(g *Gate, i int) StreamState {
		t.Helper()
		st, err := g.ExportStream(i)
		if err != nil {
			t.Fatalf("export %d: %v", i, err)
		}
		return st
	}
	fresh := predictor.FreshRow(storeless.Config().Window)
	for i := 0; i < m; i++ {
		fromStoreless, fromStore := export(storeless, i), export(withStore, i)
		if !reflect.DeepEqual(fromStoreless.Row, fresh) {
			t.Fatalf("stream %d: storeless export row %+v, want the fresh row", i, fromStoreless.Row)
		}
		if fromStore.Row.Pushes == 0 {
			t.Fatalf("stream %d: store-bearing export carries no pushes", i)
		}
		if err := withStore.ImportStream(i, fromStoreless); err != nil {
			t.Fatalf("stream %d: storeless export refused by a store-bearing gate: %v", i, err)
		}
		if got := export(withStore, i); !reflect.DeepEqual(fromStoreless, got) {
			t.Fatalf("stream %d: storeless state not preserved by a store-bearing gate\nsent: %+v\ngot:  %+v", i, fromStoreless, got)
		}
		if err := storeless.ImportStream(i, fromStore); err != nil {
			t.Fatalf("stream %d: full row refused by a storeless gate: %v", i, err)
		}
		want := fromStore
		want.Row = fresh
		if got := export(storeless, i); !reflect.DeepEqual(want, got) {
			t.Fatalf("stream %d: full row not dropped (or the rest not kept) by a storeless gate\nwant: %+v\ngot:  %+v", i, want, got)
		}
	}
}

// TestImportStreamRejectsMalformedState: a stream state no gate could have
// exported is refused whole — by a storeless gate too, which checks the row
// it then drops — and leaves the target stream as it was.
func TestImportStreamRejectsMalformedState(t *testing.T) {
	cases := []struct {
		name  string
		spoil func(*StreamState)
	}{
		{"row window length", func(st *StreamState) { st.Row.IValues = st.Row.IValues[:len(st.Row.IValues)-1] }},
		{"row +Inf I-size", func(st *StreamState) { st.Row.IValues[0] = math.Inf(1) }},
		{"row -Inf P-size", func(st *StreamState) { st.Row.PValues[1] = math.Inf(-1) }},
		{"row picture type", func(st *StreamState) { st.Row.Last = uint8(codec.PictureB) + 1 }},
		{"row negative pushes", func(st *StreamState) { st.Row.Pushes = -1 }},
		{"tracker negative P debt", func(st *StreamState) { st.Tracker.UndecodedPs = -1 }},
		{"temporal lastSel ahead of the clock", func(st *StreamState) { st.Temporal.LastSel = st.Round + 1 }},
		{"temporal NaN reward", func(st *StreamState) { st.Temporal.Rewards[len(st.Temporal.Rewards)-1] = math.NaN() }},
		{"temporal +Inf reward", func(st *StreamState) { st.Temporal.Rewards[0] = math.Inf(1) }},
		{"breaker state 99", func(st *StreamState) { st.Breaker.State = 99 }},
		{"breaker negative cooldown", func(st *StreamState) { st.Breaker.Cooldown = -1 }},
		{"breaker negative fails", func(st *StreamState) { st.Breaker.Fails = -1 }},
		{"breaker negative open-left", func(st *StreamState) { st.Breaker.OpenLeft = -1 }},
	}
	for _, withPred := range []bool{false, true} {
		for _, c := range cases {
			// A gate of its own per case: a refusal that wiped the stream must
			// not leave the next case nothing to spoil.
			const m, victim = 6, 2
			g := stateTestGate(t, m, withPred)
			driveStateRounds(t, g, m, 30, 8, make([]int, m))
			before, err := g.ExportStream(victim)
			if err != nil {
				t.Fatal(err)
			}
			st, _ := g.ExportStream(victim) // its own window slices to spoil
			if len(st.Temporal.Rewards) == 0 || !st.HasBreaker {
				t.Fatalf("victim has no estimator entries or no breaker to spoil: %+v", st)
			}
			c.spoil(&st)
			if err := g.ImportStream(victim, st); err == nil {
				t.Errorf("predictor=%v %s: malformed state imported", withPred, c.name)
				continue
			}
			after, err := g.ExportStream(victim)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, after) {
				t.Errorf("predictor=%v %s: refused import changed the stream\nbefore: %+v\nafter:  %+v", withPred, c.name, before, after)
			}
		}
	}
}

// TestImportFreshStream verifies the fail-safe path for lost transfers: the
// adopted stream starts from honest zero state (no fabricated feedback), is
// scored temporal-only until its feature windows refill, and its breaker
// does not instantly gap-open against a packet clock it never had.
func TestImportFreshStream(t *testing.T) {
	const m = 8
	g := stateTestGate(t, m, true)
	gop := make([]int, m)
	driveStateRounds(t, g, m, 40, 5, gop)

	const victim = 3
	if err := g.ImportFreshStream(victim); err != nil {
		t.Fatalf("ImportFreshStream: %v", err)
	}
	if !g.Warming(victim) {
		t.Fatalf("fresh-imported stream not in warming mode")
	}
	st, err := g.ExportStream(victim)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if len(st.Temporal.Rounds) != 0 || st.Temporal.LastSel != 0 {
		t.Fatalf("fresh import retained estimator evidence: %+v", st.Temporal)
	}
	if st.Row.Pushes != 0 || st.Row.Epoch != 0 {
		t.Fatalf("fresh import retained feature state: %+v", st.Row)
	}
	if st.Breaker.LastPkt != st.Round {
		t.Fatalf("fresh breaker clock %d, want current round %d", st.Breaker.LastPkt, st.Round)
	}

	// The stream must not gap-open within the threshold, and warming must
	// clear after Window pushes of real packets.
	driveStateRounds(t, g, m, int(g.Config().Window)*4, 6, gop)
	if g.Warming(victim) {
		t.Fatalf("warming did not clear after window refill")
	}
	for _, s := range g.Breakers()[victim : victim+1] {
		if s.GapOpens != 0 {
			t.Fatalf("fresh-imported stream gap-opened: %+v", s)
		}
	}
}

// TestExportRequiresQuiescence: stream state cannot move mid-round.
func TestExportRequiresQuiescence(t *testing.T) {
	g := stateTestGate(t, 4, false)
	pkts := []*codec.Packet{{Type: codec.PictureI, GOPSize: 8}, nil, nil, nil}
	if _, err := decideDense(g, pkts); err != nil {
		t.Fatalf("decide: %v", err)
	}
	if _, err := g.ExportStream(0); err == nil {
		t.Fatalf("ExportStream succeeded with a round pending feedback")
	}
	if err := g.RetireStream(0); err == nil {
		t.Fatalf("RetireStream succeeded with a round pending feedback")
	}
}

// TestStreamDiagnosticsOutOfRange: the per-stream diagnostics answer for a
// stream the gate does not have the way they answer for one that never saw a
// packet, like every other per-stream method range-checks instead of
// panicking on the caller's index.
func TestStreamDiagnosticsOutOfRange(t *testing.T) {
	const m = 4
	g := stateTestGate(t, m, true)
	if err := g.ImportFreshStream(m - 1); err != nil { // allocates the warm-up table
		t.Fatal(err)
	}
	for _, i := range []int{-1, m, m + 1} {
		if c := g.Confidence(i); c != 0 {
			t.Errorf("Confidence(%d) = %v, want 0", i, c)
		}
		if g.Warming(i) {
			t.Errorf("Warming(%d) = true", i)
		}
	}
}
