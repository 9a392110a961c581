package core

import (
	"testing"

	"packetgame/internal/codec"
	"packetgame/internal/knapsack"
	"packetgame/internal/predictor"
)

// The Decide-round benchmarks measure the gating hot loop in isolation:
// packet rounds are pregenerated so the codec substrate stays off the
// clock, and feedback reuses one necessary mask.

func benchConfig(tb testing.TB, m int) Config {
	tb.Helper()
	p, err := predictor.New(predictor.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return Config{Streams: m, Budget: float64(m) / 25, Predictor: p, UseTemporal: true}
}

func benchGate(tb testing.TB, m int, sel knapsack.Selector) (*Gate, [][]*codec.Packet) {
	tb.Helper()
	cfg := benchConfig(tb, m)
	cfg.Selector = sel
	g, err := NewGate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	const rounds = 32
	streams := make([]*codec.Stream, m)
	for i := range streams {
		streams[i] = codec.NewStream(codec.SceneConfig{BaseActivity: 0.4},
			codec.EncoderConfig{StreamID: i, GOPSize: 25}, int64(i))
	}
	pre := make([][]*codec.Packet, rounds)
	for r := range pre {
		pre[r] = make([]*codec.Packet, m)
		for j, st := range streams {
			pre[r][j] = st.Next()
		}
	}
	return g, pre
}

func benchDecideRound(b *testing.B, m int) {
	b.Helper()
	g, pre := benchGate(b, m, nil)
	var sel []int
	necessary := make([]bool, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		sel, err = g.DecideAppend(pre[i%len(pre)], sel[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := g.FeedbackExt(sel, necessary[:len(sel)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecideRound64(b *testing.B)   { benchDecideRound(b, 64) }
func BenchmarkDecideRound256(b *testing.B)  { benchDecideRound(b, 256) }
func BenchmarkDecideRound1024(b *testing.B) { benchDecideRound(b, 1024) }

// TestDecideRoundAllocCeiling is the verify-gate smoke bench: after warmup,
// a steady-state Decide+Feedback round must stay under a small allocs/op
// ceiling (sync.Pool churn and map internals give a little slack; the target
// is "no per-stream or per-buffer allocation scales with m"). That holds for
// the built-in ranked solve and for a configured Selector alike.
func TestDecideRoundAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	t.Run("ranked", func(t *testing.T) { decideRoundAllocCeiling(t, nil) })
	t.Run("selector", func(t *testing.T) { decideRoundAllocCeiling(t, &knapsack.GreedyPrefix{}) })
}

func decideRoundAllocCeiling(t *testing.T, selector knapsack.Selector) {
	const m = 128
	g, pre := benchGate(t, m, selector)
	var sel []int
	necessary := make([]bool, m)
	round := 0
	run := func() {
		var err error
		sel, err = g.DecideAppend(pre[round%len(pre)], sel[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := g.FeedbackExt(sel, necessary[:len(sel)], nil); err != nil {
			t.Fatal(err)
		}
		round++
	}
	for i := 0; i < 8; i++ {
		run() // warm scratch, pools, and free lists
	}
	allocs := testing.AllocsPerRun(24, run)
	const ceiling = 8
	if allocs > ceiling {
		t.Fatalf("steady-state Decide round allocates %.1f times/op, ceiling %d", allocs, ceiling)
	}
}

// TestFastPathMatchesReferenceDecisions runs the production gate and the
// reference gate scoring through the float64 forward over identical packet
// rounds and checks the decisions agree in aggregate: the float32 fast path
// may flip exact near-ties in greedy ordering, so we bound the per-round
// symmetric-difference rate rather than demand identity.
func TestFastPathMatchesReferenceDecisions(t *testing.T) {
	const m, rounds = 96, 60
	fast, pre := benchGate(t, m, nil)
	refCfg := benchConfig(t, m)
	ref, err := newRefGate(refCfg, func(feats []predictor.Features, out []float64) error {
		for k, row := range refCfg.Predictor.PredictBatch(feats) {
			copy(out[k*len(row):], row)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	necessary := make([]bool, m)
	var diff, total int
	selB := make([]bool, m)
	for r := 0; r < rounds; r++ {
		fs, err := fast.Decide(pre[r%len(pre)])
		if err != nil {
			t.Fatal(err)
		}
		rs, err := ref.Decide(pre[r%len(pre)])
		if err != nil {
			t.Fatal(err)
		}
		for i := range selB {
			selB[i] = false
		}
		for _, i := range fs {
			selB[i] = true
		}
		for _, i := range rs {
			if !selB[i] {
				diff++
			} else {
				selB[i] = false
			}
		}
		for _, on := range selB {
			if on {
				diff++
			}
		}
		total += len(rs)
		if err := fast.Feedback(fs, necessary[:len(fs)]); err != nil {
			t.Fatal(err)
		}
		if err := ref.Feedback(rs, necessary[:len(rs)]); err != nil {
			t.Fatal(err)
		}
	}
	if total == 0 {
		t.Fatal("reference gate selected nothing")
	}
	if rate := float64(diff) / float64(total); rate > 0.05 {
		t.Fatalf("fast vs reference decisions diverge on %.1f%% of selections (diff %d / %d)", rate*100, diff, total)
	}
}

// BenchmarkDecideSparseTemporal is the ledger's sparse-temporal shape on the
// gate alone, which the dense DecideRound benchmarks do not reach: a 50,000-
// stream fleet of which a window of 5,000 consecutive ids is active, the
// window advancing by 2.5% of itself per round, scored by the temporal
// estimator with exploration (no predictor) with breakers armed, one
// DecideSparseAppend + FeedbackFull per iteration. The rounds of one full
// turn of the window are pregenerated from a few prototype cameras whose
// packet sequences are a whole number of GOPs long, so the turn repeats
// seamlessly.
func BenchmarkDecideSparseTemporal(b *testing.B) {
	const (
		m      = 50000
		active = m / 10
		step   = active / 40
		turn   = m / step // rounds until the window is back where it began
		protos = 16
	)
	g, err := NewGate(Config{Streams: m, Budget: 4 + active/8, UseTemporal: true, Breaker: &BreakerConfig{}})
	if err != nil {
		b.Fatal(err)
	}
	var seq [protos][]*codec.Packet
	for c := range seq {
		st := codec.NewStream(codec.SceneConfig{BaseActivity: 0.4},
			codec.EncoderConfig{StreamID: c, GOPSize: 20}, int64(c))
		for r := 0; r < turn; r++ {
			seq[c] = append(seq[c], st.Next())
		}
	}
	rounds := make([]codec.Round, turn)
	for r := range rounds {
		rnd := &rounds[r]
		rnd.Reset(m)
		start := r * step
		for i := 0; i < start+active-m; i++ { // the part of the window that wrapped
			rnd.Append(int32(i), seq[i%protos][r])
		}
		for i := start; i < min(start+active, m); i++ {
			rnd.Append(int32(i), seq[i%protos][r])
		}
	}
	necessary := make([]bool, active)
	for k := range necessary {
		necessary[k] = k%3 == 0
	}
	var sel []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, err = g.DecideSparseAppend(&rounds[i%turn], sel[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := g.FeedbackFull(sel, necessary[:len(sel)], nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}
