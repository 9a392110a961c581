package core

import (
	"math"
	"math/rand"
	"testing"

	"packetgame/internal/codec"
	"packetgame/internal/knapsack"
	"packetgame/internal/predictor"
)

func iPacket(size int) *codec.Packet {
	return &codec.Packet{Type: codec.PictureI, GOPIndex: 0, GOPSize: 5, Size: size}
}

// advance runs beginRound with one live packet for every stream and returns
// the quarantine mask.
func advance(s *breakerSet, streams int) []bool {
	pkts := make([]*codec.Packet, streams)
	for i := range pkts {
		pkts[i] = iPacket(1000)
	}
	return s.beginRound(pkts)
}

func TestBreakerStateMachine(t *testing.T) {
	s := newBreakerSet(1, BreakerConfig{FailureThreshold: 2, GapThreshold: -1, Cooldown: 3, MaxCooldown: 6})

	// Closed: one failure is tolerated, the second opens.
	s.outcome(0, true)
	if st := s.snapshots()[0]; st.State != BreakerClosed || st.ConsecutiveFails != 1 {
		t.Fatalf("after 1 failure: %+v", st)
	}
	s.outcome(0, true)
	if st := s.snapshots()[0]; st.State != BreakerOpen || st.Opens != 1 {
		t.Fatalf("after 2 failures: %+v", st)
	}

	// Open: quarantined for the cooldown, then half-open probe.
	quarantined := 0
	for r := 0; r < 3; r++ {
		if advance(s, 1)[0] {
			quarantined++
		}
	}
	if st := s.snapshots()[0]; st.State != BreakerHalfOpen {
		t.Fatalf("after cooldown: %+v", st)
	}
	if quarantined != 2 {
		t.Fatalf("quarantined %d rounds during cooldown 3, want 2 (last round is the probe)", quarantined)
	}
	if st := s.snapshots()[0]; st.QuarantinedRounds != 3 {
		t.Fatalf("QuarantinedRounds = %d, want 3", st.QuarantinedRounds)
	}

	// Failed probe: reopen with doubled cooldown.
	s.outcome(0, true)
	st := s.snapshots()[0]
	if st.State != BreakerOpen || st.Reopens != 1 || st.Opens != 2 {
		t.Fatalf("after failed probe: %+v", st)
	}
	rounds := 0
	for s.snapshots()[0].State == BreakerOpen {
		advance(s, 1)
		rounds++
		if rounds > 20 {
			t.Fatal("breaker never half-opened after reopen")
		}
	}
	if rounds != 6 {
		t.Fatalf("reopen cooldown = %d rounds, want doubled to 6", rounds)
	}

	// Successful probe: closed, cooldown reset, counters updated.
	s.outcome(0, false)
	st = s.snapshots()[0]
	if st.State != BreakerClosed || st.Recoveries != 1 || st.ConsecutiveFails != 0 {
		t.Fatalf("after successful probe: %+v", st)
	}

	// A lone failure after recovery does not reopen; a success clears it.
	s.outcome(0, true)
	s.outcome(0, false)
	if st := s.snapshots()[0]; st.State != BreakerClosed || st.ConsecutiveFails != 0 {
		t.Fatalf("fail+success after recovery: %+v", st)
	}
}

func TestBreakerCooldownCap(t *testing.T) {
	s := newBreakerSet(1, BreakerConfig{FailureThreshold: 1, GapThreshold: -1, Cooldown: 2, MaxCooldown: 5})
	s.outcome(0, true) // open with cooldown 2
	for probe := 0; probe < 4; probe++ {
		for s.snapshots()[0].State == BreakerOpen {
			advance(s, 1)
		}
		s.outcome(0, true) // fail every probe: 2 → 4 → 5 → 5 (capped)
	}
	openRounds := 0
	for s.snapshots()[0].State == BreakerOpen {
		advance(s, 1)
		openRounds++
		if openRounds > 50 {
			t.Fatal("breaker stuck open")
		}
	}
	if openRounds != 5 {
		t.Fatalf("cooldown after repeated failed probes = %d, want capped at 5", openRounds)
	}
}

func TestBreakerGapOpens(t *testing.T) {
	s := newBreakerSet(2, BreakerConfig{FailureThreshold: 3, GapThreshold: 3, Cooldown: 2})
	// Stream 0 goes silent; stream 1 keeps sending.
	for r := 0; r < 4; r++ {
		s.beginRound([]*codec.Packet{nil, iPacket(500)})
	}
	snaps := s.snapshots()
	if snaps[0].State != BreakerOpen || snaps[0].GapOpens != 1 {
		t.Fatalf("silent stream: %+v", snaps[0])
	}
	if snaps[1].State != BreakerClosed || snaps[1].Opens != 0 {
		t.Fatalf("live stream: %+v", snaps[1])
	}

	// Negative threshold disables gap detection entirely.
	s2 := newBreakerSet(1, BreakerConfig{GapThreshold: -1})
	for r := 0; r < 200; r++ {
		s2.beginRound([]*codec.Packet{nil})
	}
	if st := s2.snapshots()[0]; st.State != BreakerClosed {
		t.Fatalf("gap detection disabled but breaker opened: %+v", st)
	}
}

// TestGateQuarantineAndRecovery drives the full gate: decode failures open a
// stream's breaker, the open stream vanishes from Decide (its budget share
// flows to the healthy streams), and a clean half-open probe closes it again.
func TestGateQuarantineAndRecovery(t *testing.T) {
	const m = 4
	g, err := NewGate(Config{
		Streams:     m,
		Budget:      12, // room for every I-frame (4 × 2.9): all streams decode each round
		UseTemporal: true,
		Breaker:     &BreakerConfig{FailureThreshold: 2, Cooldown: 3, GapThreshold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*codec.Packet, m)
	round := func(failStream int) []int {
		t.Helper()
		for i := range pkts {
			pkts[i] = iPacket(1000 + 100*i)
		}
		sel, err := g.Decide(pkts)
		if err != nil {
			t.Fatal(err)
		}
		nec := make([]bool, len(sel))
		failed := make([]bool, len(sel))
		for k, i := range sel {
			nec[k] = true
			if i == failStream {
				failed[k] = true
				nec[k] = false
			}
		}
		if err := g.FeedbackExt(sel, nec, failed); err != nil {
			t.Fatal(err)
		}
		return sel
	}
	contains := func(sel []int, i int) bool {
		for _, s := range sel {
			if s == i {
				return true
			}
		}
		return false
	}

	// Fail stream 0's decodes until its breaker opens (2 consecutive fails).
	opened := false
	for r := 0; r < 10 && !opened; r++ {
		round(0)
		opened = g.Breakers()[0].State == BreakerOpen
	}
	if !opened {
		t.Fatal("breaker never opened under repeated decode failures")
	}
	if got := g.Quarantined(); got != 1 {
		t.Fatalf("Quarantined() = %d, want 1", got)
	}

	// While open, stream 0 is quarantined: it vanishes from the selection
	// while the healthy streams keep decoding. After the cooldown the
	// breaker half-opens, the probe decode succeeds, and it closes again.
	quarRounds := 0
	for r := 0; r < 20 && g.Breakers()[0].State != BreakerClosed; r++ {
		sel := round(-1)
		if contains(sel, 0) {
			// Only the half-open probe readmits the stream, and its clean
			// decode must close the breaker within the same round.
			if st := g.Breakers()[0]; st.State != BreakerClosed {
				t.Fatalf("stream 0 selected while quarantined: %+v", st)
			}
		} else {
			quarRounds++
			if len(sel) != 3 {
				t.Fatalf("healthy streams lost budget share: selected %v", sel)
			}
		}
	}
	st := g.Breakers()[0]
	if st.State != BreakerClosed || st.Recoveries < 1 {
		t.Fatalf("breaker did not recover: %+v", st)
	}
	if quarRounds < 2 || st.QuarantinedRounds < 2 {
		t.Fatalf("quarantined for %d rounds (snapshot %d), want ≥ 2 under cooldown 3", quarRounds, st.QuarantinedRounds)
	}
}

// candidates lists a stream-indexed item array the way Decide lists its
// active set: a zero slot is a quarantined stream and is absent.
func candidates(items []knapsack.Item) []knapsack.Candidate {
	var cands []knapsack.Candidate
	for i, it := range items {
		if it != (knapsack.Item{}) {
			cands = append(cands, knapsack.Candidate{Stream: int32(i), Value: it.Value, Cost: it.Cost})
		}
	}
	return cands
}

// TestQuarantineKnapsackBound checks the budget-reallocation guarantee: with
// quarantined streams left out exactly as Decide does (no candidate), greedy
// selection over the mixed fleet (a) never picks a quarantined stream, (b)
// matches the selection over the healthy subset alone, and (c) keeps the
// Lemma-1 value bound ≥ (1 − c/B)·OPT over the healthy subset.
func TestQuarantineKnapsackBound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	greedy := &knapsack.Greedy{}
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(12)
		healthy := make([]knapsack.Item, 0, n)
		mixed := make([]knapsack.Item, n)
		quarantined := make([]bool, n)
		for i := 0; i < n; i++ {
			it := knapsack.Item{Value: 0.05 + rng.Float64(), Cost: 0.8 + 2.2*rng.Float64()}
			if rng.Float64() < 0.3 {
				quarantined[i] = true
				mixed[i] = knapsack.Item{} // open breaker: Decide lists no candidate
				continue
			}
			mixed[i] = it
			healthy = append(healthy, it)
		}
		budget := 2.9 + rng.Float64()*6
		sel := greedy.Select(nil, candidates(mixed), budget)
		for _, i := range sel {
			if quarantined[i] {
				t.Fatalf("trial %d: greedy picked quarantined stream %d", trial, i)
			}
		}
		if len(healthy) == 0 {
			continue
		}
		got := knapsack.TotalValue(mixed, sel)
		healthySel := greedy.Select(nil, candidates(healthy), budget)
		if want := knapsack.TotalValue(healthy, healthySel); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: mixed-set value %v != healthy-subset value %v", trial, got, want)
		}
		opt := knapsack.TotalValue(healthy, (&knapsack.ExactDP{Scale: 0.01}).Select(nil, candidates(healthy), budget))
		c := knapsack.MaxCost(healthy)
		if bound := (1 - c/budget) * opt; got < bound-1e-6 {
			t.Fatalf("trial %d: value %v < (1-%v/%v)·OPT = %v over healthy subset", trial, got, c, budget, bound)
		}
	}
}

// TestQuarantineTieredKnapsackBound extends the budget-reallocation
// guarantee to the tiered (priority-class) solver: with quarantined streams
// absent (a zero slot in the dense reference solver's array), (a) no quarantined stream is ever picked,
// (b) the quarantined stream's tier keeps or improves its value net of the
// quarantined member — the freed budget flows in-tier before cascading —
// while tiers above it are untouched, and (c) the per-tier Lemma-1 bound
// holds against the budget each tier saw over the healthy subset.
func TestQuarantineTieredKnapsackBound(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	tiered := &knapsack.Tiered{}
	dp := &knapsack.ExactDP{Scale: 0.01}
	const numTiers = 4
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(12)
		items := make([]knapsack.Item, n)
		tiers := make([]uint8, n)
		for i := 0; i < n; i++ {
			items[i] = knapsack.Item{Value: 0.05 + rng.Float64(), Cost: 0.8 + 2.2*rng.Float64()}
			tiers[i] = uint8(rng.Intn(numTiers))
		}
		budget := 2.9 + rng.Float64()*6
		base := tiered.SelectAppend(nil, items, tiers, numTiers, budget)
		if len(base) == 0 {
			continue
		}
		q := base[rng.Intn(len(base))]
		qTier := int(tiers[q])
		mixed := make([]knapsack.Item, n)
		copy(mixed, items)
		mixed[q] = knapsack.Item{} // open breaker: the stream is not offered
		sel := tiered.SelectAppend(nil, mixed, tiers, numTiers, budget)
		for _, i := range sel {
			if i == q {
				t.Fatalf("trial %d: tiered picked quarantined stream %d", trial, q)
			}
		}
		tierValue := func(selIdx []int, tier, skip int) float64 {
			var v float64
			for _, i := range selIdx {
				if i != skip && int(tiers[i]) == tier {
					v += items[i].Value
				}
			}
			return v
		}
		for tier := 0; tier < qTier; tier++ {
			if b, a := tierValue(base, tier, -1), tierValue(sel, tier, -1); math.Abs(b-a) > 1e-9 {
				t.Fatalf("trial %d: quarantine in tier %d disturbed upstream tier %d (%v → %v)",
					trial, qTier, tier, b, a)
			}
		}
		if before, now := tierValue(base, qTier, q), tierValue(sel, qTier, -1); now < before-1e-9 {
			t.Fatalf("trial %d: tier %d lost in-tier value %v → %v after quarantine",
				trial, qTier, before, now)
		}
		// Per-tier Lemma-1 over the healthy subset, replaying the cascade.
		remaining := budget
		for tier := 0; tier < numTiers; tier++ {
			var healthy []knapsack.Item
			var got float64
			for i, it := range mixed {
				if int(tiers[i]) != tier || it.Value <= 0 {
					continue
				}
				healthy = append(healthy, it)
			}
			got = tierValue(sel, tier, -1)
			if len(healthy) > 0 && remaining > 0 {
				if c := knapsack.MaxCost(healthy); c < remaining {
					opt := knapsack.TotalValue(healthy, dp.Select(nil, candidates(healthy), remaining))
					if bound := (1 - c/remaining) * opt; got < bound-1e-6 {
						t.Fatalf("trial %d tier %d: value %v < (1-%v/%v)·OPT = %v",
							trial, tier, got, c, remaining, bound)
					}
				}
			}
			for _, i := range sel {
				if int(tiers[i]) == tier {
					remaining -= mixed[i].Cost
				}
			}
		}
	}
}

// TestPoisonedWindowDegradesToTemporal feeds a stream zero-size packets (the
// truncation signature): the fault-aware gate must flag its feature window as
// poisoned and score it with the temporal-only estimate, while a
// fault-oblivious gate keeps trusting the predictor on the garbage input and
// the healthy stream's score is untouched by the degradation.
func TestPoisonedWindowDegradesToTemporal(t *testing.T) {
	pcfg := predictor.DefaultConfig()
	pcfg.Window = 3
	pcfg.Seed = 7
	p, err := predictor.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	noExplore := false
	mk := func(brk *BreakerConfig) *Gate {
		g, err := NewGate(Config{Streams: 2, Budget: 100, Window: 3, Predictor: p,
			UseTemporal: true, Explore: &noExplore, Breaker: brk})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	armed := mk(&BreakerConfig{})
	oblivious := mk(nil)

	for r := 0; r < 8; r++ {
		pkts := []*codec.Packet{iPacket(0), iPacket(4000)} // stream 0 truncated to zero size
		for _, g := range []*Gate{armed, oblivious} {
			sel, err := g.Decide(pkts)
			if err != nil {
				t.Fatal(err)
			}
			nec := make([]bool, len(sel))
			for k := range nec {
				nec[k] = true
			}
			if err := g.Feedback(sel, nec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !armed.degraded[0] {
		t.Fatal("stream 0's window is all zeros but the armed gate did not degrade it")
	}
	if armed.degraded[1] {
		t.Fatal("healthy stream wrongly degraded")
	}
	if oblivious.degraded[0] {
		t.Fatal("fault-oblivious gate must never degrade")
	}
	if got, want := armed.Confidence(0), armed.temporal[0]; got != want {
		t.Fatalf("degraded stream scored %v, want its temporal estimate %v", got, want)
	}
	// Both gates saw identical selections and feedback, so their predictor
	// and estimator states match: the degraded score must differ from the
	// predictor's, and the healthy stream's score must be identical.
	if armed.Confidence(0) == oblivious.Confidence(0) {
		t.Fatal("degraded score coincides with the predictor output")
	}
	if got, want := armed.Confidence(1), oblivious.Confidence(1); got != want {
		t.Fatalf("healthy stream confidence diverged: %v vs %v", got, want)
	}
}

func TestFeedbackExtValidation(t *testing.T) {
	g, err := NewGate(Config{Streams: 2, Budget: 10, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := g.Decide([]*codec.Packet{iPacket(1000), iPacket(1000)})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 {
		t.Fatal("nothing selected")
	}
	nec := make([]bool, len(sel))
	if err := g.FeedbackExt(sel, nec, make([]bool, len(sel)+1)); err == nil {
		t.Fatal("failed-mask length mismatch must error")
	}
	if err := g.FeedbackExt(sel, nec, make([]bool, len(sel))); err != nil {
		t.Fatal(err)
	}
}
