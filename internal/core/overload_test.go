package core

import (
	"testing"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/knapsack"
	"packetgame/internal/metrics"
	"packetgame/internal/overload"
	"packetgame/internal/predictor"
)

func overloadStreams(m int, seed int64) []*codec.Stream {
	streams := make([]*codec.Stream, m)
	for i := range streams {
		streams[i] = codec.NewStream(codec.SceneConfig{BaseActivity: 0.5},
			codec.EncoderConfig{StreamID: i, GOPSize: 5}, seed+int64(i))
	}
	return streams
}

func nextRound(streams []*codec.Stream) []*codec.Packet {
	pkts := make([]*codec.Packet, len(streams))
	for i, s := range streams {
		pkts[i] = s.Next()
	}
	return pkts
}

func TestGatePriorityValidation(t *testing.T) {
	if _, err := NewGate(Config{Streams: 4, Budget: 2, UseTemporal: true,
		Priorities: []uint8{0, 1}}); err == nil {
		t.Fatal("length-mismatched Priorities accepted")
	}
	if _, err := NewGate(Config{Streams: 4, Budget: 2, UseTemporal: true,
		Priorities: []uint8{0, 1, 2, 3}, Selector: &knapsack.RoundRobin{}}); err == nil {
		t.Fatal("Priorities combined with a custom Selector accepted")
	}
	g, err := NewGate(Config{Streams: 4, Budget: 2, UseTemporal: true,
		Priorities: []uint8{0, 1, 2, 3}})
	if err != nil {
		t.Fatalf("valid tiered gate rejected: %v", err)
	}
	if g.numTiers != 4 {
		t.Fatalf("numTiers = %d, want 4", g.numTiers)
	}
}

// driveMode steps a fresh governor down the ladder to the target mode.
func driveMode(t *testing.T, gov *overload.Governor, target overload.Mode) {
	t.Helper()
	slo := gov.Config().SLO
	for i := 0; i < 3*int(target)+3; i++ {
		if _, m := gov.Plan(); m == target {
			return
		}
		gov.Observe(3*slo, 0)
	}
	if _, m := gov.Plan(); m != target {
		t.Fatalf("could not drive governor to %v, stuck at %v", target, m)
	}
}

// TestGateBrownoutAdmission checks the admission rule of each ladder rung:
// keyframe-only selects only independent pictures, shed additionally only
// tier-0 streams, and both still produce work when affordable.
func TestGateBrownoutAdmission(t *testing.T) {
	for _, target := range []overload.Mode{overload.ModeKeyframeOnly, overload.ModeShed} {
		t.Run(target.String(), func(t *testing.T) {
			var stats metrics.OverloadStats
			gov, err := overload.NewGovernor(overload.Config{
				SLO: 10 * time.Millisecond, Budget: 1000, EnterAfter: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			driveMode(t, gov, target)
			const m = 8
			g, err := NewGate(Config{
				Streams: m, Budget: 1000, UseTemporal: true,
				Priorities: []uint8{0, 0, 1, 1, 2, 2, 3, 3},
				Governor:   gov, Overload: &stats,
			})
			if err != nil {
				t.Fatal(err)
			}
			streams := overloadStreams(m, 11)
			necessary := make([]bool, m)
			sawP, selRounds := false, 0
			for r := 0; r < 20; r++ {
				pkts := nextRound(streams)
				for _, p := range pkts {
					if p != nil && !p.Type.Independent() {
						sawP = true
					}
				}
				sel, err := decideDense(g, pkts)
				if err != nil {
					t.Fatal(err)
				}
				for _, i := range sel {
					if !pkts[i].Type.Independent() {
						t.Fatalf("round %d: %v admitted predicted picture from stream %d", r, target, i)
					}
					if target == overload.ModeShed && g.tiers[i] != 0 {
						t.Fatalf("round %d: shed mode admitted tier-%d stream %d", r, g.tiers[i], i)
					}
				}
				if len(sel) > 0 {
					selRounds++
				}
				if err := g.FeedbackFull(sel, necessary[:len(sel)], nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			if !sawP {
				t.Fatal("test never produced a predicted picture; admission rule untested")
			}
			if selRounds == 0 {
				t.Fatalf("%v mode never selected anything despite an ample budget", target)
			}
			if stats.Snapshot().Shed == 0 {
				t.Fatalf("%v mode shed nothing despite predicted pictures arriving", target)
			}
		})
	}
}

// TestGateTemporalOnlyModeSkipsPredictor: a predictor-armed gate forced to
// the temporal-only rung must make the same decisions as a gate that has no
// predictor at all.
func TestGateTemporalOnlyModeSkipsPredictor(t *testing.T) {
	// MinBudget pins B_eff at the nominal budget so the mode's effect is
	// isolated from the AIMD cuts driveMode's pressure rounds would cause.
	gov, err := overload.NewGovernor(overload.Config{
		SLO: 10 * time.Millisecond, Budget: 6, MinBudget: 6,
		EnterAfter: 1, ExitAfter: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveMode(t, gov, overload.ModeTemporalOnly)
	const m = 12
	p, err := predictor.New(predictor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	withPred, err := NewGate(Config{
		Streams: m, Budget: 6, Predictor: p, UseTemporal: true, Governor: gov,
	})
	if err != nil {
		t.Fatal(err)
	}
	noPred, err := NewGate(Config{Streams: m, Budget: 6, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := overloadStreams(m, 23), overloadStreams(m, 23)
	necessary := make([]bool, m)
	for r := 0; r < 30; r++ {
		selA, err := decideDense(withPred, nextRound(sa))
		if err != nil {
			t.Fatal(err)
		}
		selB, err := decideDense(noPred, nextRound(sb))
		if err != nil {
			t.Fatal(err)
		}
		if len(selA) != len(selB) {
			t.Fatalf("round %d: temporal-only gate selected %v, predictor-free gate %v", r, selA, selB)
		}
		for k := range selA {
			if selA[k] != selB[k] {
				t.Fatalf("round %d: temporal-only gate selected %v, predictor-free gate %v", r, selA, selB)
			}
		}
		for k := range necessary[:len(selA)] {
			necessary[k] = (r+selA[k])%3 == 0
		}
		if err := withPred.FeedbackFull(selA, necessary[:len(selA)], nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := noPred.FeedbackFull(selB, necessary[:len(selB)], nil, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// exploitSnapshot reads every stream's current temporal exploitation term.
func exploitSnapshot(g *Gate) []float64 {
	out := make([]float64, g.cfg.Streams)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.est != nil {
		for i := range out {
			out[i] = g.est.Exploit(i)
		}
	}
	return out
}

// TestDeferredFeedbackDoesNotPoisonEstimator is the load-shedding purity
// property: a round whose selections are all settled as Deferred must (a)
// leave every stream's exploitation term exactly where it was — deferred
// slots are recorded as unselected, only ages advance — and (b) make the
// accompanying necessary labels unobservable: two gates fed opposite labels
// under an all-deferred mask stay bit-identical forever after.
func TestDeferredFeedbackDoesNotPoisonEstimator(t *testing.T) {
	// Window outlasts the test so the UCB ring never evicts: any change to
	// an exploitation term can then only come from the round being pushed,
	// which is exactly the contribution deferred slots must not make.
	mk := func() (*Gate, []*codec.Stream) {
		g, err := NewGate(Config{Streams: 16, Budget: 5, Window: 64, UseTemporal: true})
		if err != nil {
			t.Fatal(err)
		}
		return g, overloadStreams(16, 37)
	}
	a, sa := mk()
	b, sb := mk()
	necessary := make([]bool, 16)
	step := func(g *Gate, streams []*codec.Stream, r int, defAll, necVal bool) []int {
		t.Helper()
		sel, err := decideDense(g, nextRound(streams))
		if err != nil {
			t.Fatal(err)
		}
		var deferred []bool
		for k := range sel {
			necessary[k] = (r+sel[k])%2 == 0
		}
		if defAll {
			deferred = make([]bool, len(sel))
			for k := range deferred {
				deferred[k] = true
				necessary[k] = necVal
			}
		}
		if err := g.FeedbackFull(sel, necessary[:len(sel)], nil, deferred); err != nil {
			t.Fatal(err)
		}
		return sel
	}
	for r := 0; r < 10; r++ {
		step(a, sa, r, false, false)
		step(b, sb, r, false, false)
	}

	before := exploitSnapshot(a)
	selA := step(a, sa, 10, true, true) // all deferred, labels all true
	step(b, sb, 10, true, false)        // all deferred, labels all false
	if len(selA) == 0 {
		t.Fatal("deferred round selected nothing; property untested")
	}
	after := exploitSnapshot(a)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("stream %d exploitation term mutated by deferred feedback: %v → %v", i, before[i], after[i])
		}
	}
	for r := 11; r < 40; r++ {
		sa2 := step(a, sa, r, false, false)
		sb2 := step(b, sb, r, false, false)
		if len(sa2) != len(sb2) {
			t.Fatalf("round %d: gates diverged after deferred labels: %v vs %v", r, sa2, sb2)
		}
		for k := range sa2 {
			if sa2[k] != sb2[k] {
				t.Fatalf("round %d: gates diverged after deferred labels: %v vs %v", r, sa2, sb2)
			}
		}
	}
}

// TestDeferredFeedbackSkipsTrainerAndBreakers: deferred slots never reach
// the online-training buffer, and never drive breaker outcomes even when
// flagged failed.
func TestDeferredFeedbackSkipsTrainerAndBreakers(t *testing.T) {
	p, err := predictor.New(predictor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const m = 8
	g, err := NewGate(Config{
		Streams: m, Budget: 4, Predictor: p, UseTemporal: true, TaskIndex: 0,
		OnlineLR: 0.01, OnlineBatch: 64,
		Breaker: &BreakerConfig{FailureThreshold: 2, Cooldown: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	streams := overloadStreams(m, 53)
	necessary := make([]bool, m)
	failed := make([]bool, m)
	for k := range failed {
		failed[k] = true
	}
	for r := 0; r < 12; r++ {
		sel, err := decideDense(g, nextRound(streams))
		if err != nil {
			t.Fatal(err)
		}
		deferred := make([]bool, len(sel))
		for k := range deferred {
			deferred[k] = true
		}
		if err := g.FeedbackFull(sel, necessary[:len(sel)], failed[:len(sel)], deferred); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(g.buffer); n != 0 {
		t.Fatalf("deferred slots buffered %d training samples, want 0", n)
	}
	for i, b := range g.Breakers() {
		if b.State != BreakerClosed || b.Opens != 0 || b.ConsecutiveFails != 0 {
			t.Fatalf("stream %d breaker tripped by deferred decodes: %+v", i, b)
		}
	}
}

// TestGovernedDecideRoundAllocCeiling is the overload analog of
// TestDecideRoundAllocCeiling: a steady-state governed round — tiered
// solve, governor Plan/Observe, deferred feedback slots — must stay under
// the same small allocation ceiling.
func TestGovernedDecideRoundAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	const m = 128
	p, err := predictor.New(predictor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var stats metrics.OverloadStats
	gov, err := overload.NewGovernor(overload.Config{
		SLO: 100 * time.Millisecond, Budget: float64(m) / 25, Stats: &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	prios := make([]uint8, m)
	for i := range prios {
		prios[i] = uint8(i % 4)
	}
	g, err := NewGate(Config{
		Streams: m, Budget: float64(m) / 25, Predictor: p, UseTemporal: true,
		Priorities: prios, Governor: gov, Overload: &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	streams := overloadStreams(m, 71)
	const rounds = 32
	pre := make([][]*codec.Packet, rounds)
	for r := range pre {
		pre[r] = nextRound(streams)
	}
	rnds := roundsOf(pre)
	var sel []int
	necessary := make([]bool, m)
	deferred := make([]bool, m)
	round := 0
	run := func() {
		var err error
		sel, err = g.DecideSparseAppend(&rnds[round%rounds], sel[:0])
		if err != nil {
			t.Fatal(err)
		}
		for k := range sel {
			deferred[k] = k&3 == 0
		}
		if err := g.FeedbackFull(sel, necessary[:len(sel)], nil, deferred[:len(sel)]); err != nil {
			t.Fatal(err)
		}
		gov.Observe(20*time.Millisecond, len(sel))
		round++
	}
	for i := 0; i < 8; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(24, run)
	const ceiling = 8
	if allocs > ceiling {
		t.Fatalf("steady-state governed round allocates %.1f times/op, ceiling %d", allocs, ceiling)
	}
}
