package core

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"packetgame/internal/codec"
	"packetgame/internal/overload"
	"packetgame/internal/predictor"
	"packetgame/internal/trace"
)

// memSink buffers trace rounds in memory for post-run comparison.
type memSink struct{ rounds []trace.Round }

func (s *memSink) Write(r trace.Round) error {
	cp := r
	cp.Decisions = append([]trace.Decision(nil), r.Decisions...)
	s.rounds = append(s.rounds, cp)
	return nil
}

// TestBreakerSparseDenseEquivalence drives two breaker sets with identical
// random packet patterns and decode outcomes — one through the lazy sparse
// entry point, one through the dense per-round shim — and demands identical
// quarantine decisions every round and identical snapshots (state machine
// positions and all lifetime counters) throughout. This is the contract the
// lazy fast-forward must honor: closed-form gap/cooldown advancement is
// round-for-round equal to ticking every breaker every round.
func TestBreakerSparseDenseEquivalence(t *testing.T) {
	const m = 16
	cfg := BreakerConfig{FailureThreshold: 2, GapThreshold: 4, Cooldown: 3, MaxCooldown: 12}
	sparse := newBreakerSet(m, cfg)
	dense := newBreakerSet(m, cfg)
	rng := rand.New(rand.NewSource(7))
	pkts := make([]*codec.Packet, m)
	var nonIdle []int32
	for r := 0; r < 2500; r++ {
		nonIdle = nonIdle[:0]
		for i := range pkts {
			pkts[i] = nil
			// Stream m-1 idles in long runs to exercise multi-round
			// fast-forward spans (gap-open deep inside a span, cooldown
			// burn-down across it).
			idleP := 0.6
			if i == m-1 {
				idleP = 0.95
			}
			if rng.Float64() > idleP {
				pkts[i] = &codec.Packet{Type: codec.PictureP}
				nonIdle = append(nonIdle, int32(i))
			}
		}
		qs := sparse.beginRoundSparse(nonIdle)
		qd := dense.beginRound(pkts)
		for _, i := range nonIdle {
			if qs[i] != qd[i] {
				t.Fatalf("round %d stream %d: sparse quar=%v dense quar=%v", r, i, qs[i], qd[i])
			}
		}
		// Decode outcomes for a subset of the non-quarantined packet
		// streams, exactly as the gate's feedback path would deliver them.
		for _, i := range nonIdle {
			if qs[i] {
				continue
			}
			if rng.Float64() < 0.5 {
				failed := rng.Float64() < 0.35
				sparse.outcome(int(i), failed)
				dense.outcome(int(i), failed)
			}
		}
		if r%97 == 0 || r == 2499 {
			ss, ds := sparse.snapshots(), dense.snapshots()
			if !reflect.DeepEqual(ss, ds) {
				t.Fatalf("round %d: snapshots diverged\nsparse: %+v\ndense:  %+v", r, ss, ds)
			}
		}
	}
}

// oracleCase is one twin-gate configuration for the incremental-vs-dense
// property test.
type oracleCase struct {
	name      string
	m         int
	rounds    int
	seed      int64
	poison    int  // the first `poison` streams always push zero-size packets
	withFail  bool // random decode failures in feedback
	withDefer bool // random deferred slots in feedback
	wantHits  bool // assert the score cache actually fired
	cfg       func(m int) Config
}

func tinyPredictor(t *testing.T, tasks int, useTemporal bool) *predictor.Predictor {
	t.Helper()
	p, err := predictor.New(predictor.Config{
		Window: 4, ConvUnits: 4, ConvLayers: 1, DenseUnits: 8,
		Tasks: tasks, UseIView: true, UsePView: true,
		UseTemporal: useTemporal, Seed: 5,
	})
	if err != nil {
		t.Fatalf("predictor: %v", err)
	}
	return p
}

func boolPtr(b bool) *bool { return &b }

// decideVia hands the dense round pkts, whose non-idle streams nonIdle lists,
// to the gate through entry point r%3: DecideSparseAppend over its FromDense
// round (the protocol every engine round uses), then the two ledger-probe
// shims, DecideRoundAppend and DecideAppend. The twin tests rotate them so
// all three are held to the reference gate.
func decideVia(g *Gate, r int, pkts []*codec.Packet, nonIdle []int32) ([]int, error) {
	switch r % 3 {
	case 0:
		var rnd codec.Round
		rnd.FromDense(pkts)
		return g.DecideSparseAppend(&rnd, nil)
	case 1:
		return g.DecideRoundAppend(pkts, nonIdle, nil)
	}
	return g.DecideAppend(pkts, nil)
}

// TestIncrementalMatchesDenseOracle is the bit-identity contract: for every
// configuration, the production gate (score cache, ranked selection, lazy
// breakers, sparse feedback) and the dense reference gate (reference_test.go)
// scoring through the same compiled forward, driven with identical packets,
// feedback, and overload schedules, must produce identical selections every
// round, identical decision traces, identical lifetime stats, and identical
// breaker snapshots.
func TestIncrementalMatchesDenseOracle(t *testing.T) {
	cases := []oracleCase{
		{
			name: "temporal-only", m: 24, rounds: 1000, seed: 11,
			cfg: func(m int) Config {
				return Config{Streams: m, Window: 4, Budget: 10, UseTemporal: true}
			},
		},
		{
			name: "fused-alltasks", m: 24, rounds: 1000, seed: 12,
			cfg: func(m int) Config {
				return Config{Streams: m, Window: 4, Budget: 10, UseTemporal: true,
					TaskIndex: AllTasks}
			},
		},
		{
			name: "predictor-only", m: 24, rounds: 1000, seed: 13, wantHits: true,
			cfg: func(m int) Config {
				return Config{Streams: m, Window: 4, Budget: 10, UseTemporal: false,
					Explore: boolPtr(false), DependencyAware: boolPtr(false)}
			},
		},
		{
			name: "breakers-tiers-poison", m: 24, rounds: 1000, seed: 14,
			poison: 2, withFail: true, withDefer: true,
			cfg: func(m int) Config {
				prio := make([]uint8, m)
				for i := range prio {
					prio[i] = uint8(i % 3)
				}
				return Config{Streams: m, Window: 4, Budget: 10, UseTemporal: true,
					Breaker:    &BreakerConfig{FailureThreshold: 2, GapThreshold: 5, Cooldown: 4},
					Priorities: prio}
			},
		},
		{
			name: "online-learning", m: 24, rounds: 800, seed: 15,
			cfg: func(m int) Config {
				return Config{Streams: m, Window: 4, Budget: 10, UseTemporal: true,
					OnlineLR: 0.05, OnlineBatch: 16, TaskIndex: 0}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runOracleCase(t, tc) })
	}
}

func runOracleCase(t *testing.T, tc oracleCase) {
	mkCfg := func() (Config, *memSink, *overload.Scripted) {
		cfg := tc.cfg(tc.m)
		switch tc.name {
		case "temporal-only":
			// no predictor: exercises ranked selection + sparse loops alone
		case "predictor-only":
			cfg.Predictor = tinyPredictor(t, 1, false)
		case "fused-alltasks":
			cfg.Predictor = tinyPredictor(t, 2, true)
		default:
			cfg.Predictor = tinyPredictor(t, 1, true)
		}
		sink := &memSink{}
		plan := overload.NewScripted(cfg.Budget)
		cfg.Trace = sink
		cfg.Planner = plan
		return cfg, sink, plan
	}
	incCfg, incSink, incPlan := mkCfg()
	inc, err := NewGate(incCfg)
	if err != nil {
		t.Fatalf("NewGate: %v", err)
	}
	oraCfg, oraSink, oraPlan := mkCfg()
	var forward func([]predictor.Features, []float64) error
	if oraCfg.Predictor != nil {
		forward = oraCfg.Predictor.PredictInto
	}
	ora, err := newRefGate(oraCfg, forward)
	if err != nil {
		t.Fatalf("newRefGate: %v", err)
	}

	rng := rand.New(rand.NewSource(tc.seed))
	modes := []overload.Mode{overload.ModeFull, overload.ModeFull, overload.ModeFull,
		overload.ModeTemporalOnly, overload.ModeKeyframeOnly, overload.ModeShed}
	gopIdx := make([]int, tc.m)
	constSize := make([]int, tc.m) // 0 = per-round random sizes
	for i := range constSize {
		if i >= tc.poison && i%3 == 0 {
			constSize[i] = 500 + 100*i // constant feed: feature window freezes
		}
	}
	pkts := make([]*codec.Packet, tc.m)
	var nonIdle []int32

	for r := 0; r < tc.rounds; r++ {
		// Overload schedule steps: both planners move in lockstep.
		if r%41 == 40 {
			b := []float64{4, 8, 10, 16}[rng.Intn(4)]
			md := modes[rng.Intn(len(modes))]
			incPlan.Set(b, md)
			oraPlan.Set(b, md)
		}
		nonIdle = nonIdle[:0]
		for i := range pkts {
			pkts[i] = nil
			if rng.Float64() < 0.3 {
				continue // idle round for this stream
			}
			p := &codec.Packet{StreamID: i, GOPSize: 8, GOPIndex: gopIdx[i]}
			if gopIdx[i] == 0 {
				p.Type = codec.PictureI
			} else {
				p.Type = codec.PictureP
			}
			gopIdx[i] = (gopIdx[i] + 1) % 8
			switch {
			case i < tc.poison:
				p.Size = 0 // poisoned metadata feed
			case constSize[i] != 0:
				p.Size = constSize[i]
			default:
				p.Size = 200 + rng.Intn(4000)
			}
			pkts[i] = p
			nonIdle = append(nonIdle, int32(i))
		}

		selInc, err1 := decideVia(inc, r, pkts, nonIdle)
		selOra, err2 := ora.Decide(pkts)
		if err1 != nil || err2 != nil {
			t.Fatalf("round %d: decide errors inc=%v oracle=%v", r, err1, err2)
		}
		if !reflect.DeepEqual(selInc, selOra) {
			t.Fatalf("round %d: selections diverged\ninc:    %v\noracle: %v", r, selInc, selOra)
		}

		necessary := make([]bool, len(selInc))
		for k := range necessary {
			necessary[k] = rng.Float64() < 0.5
		}
		var failed, deferred []bool
		if tc.withFail && rng.Float64() < 0.7 {
			failed = make([]bool, len(selInc))
			for k := range failed {
				failed[k] = rng.Float64() < 0.25
			}
		}
		if tc.withDefer && rng.Float64() < 0.3 {
			deferred = make([]bool, len(selInc))
			for k := range deferred {
				deferred[k] = rng.Float64() < 0.2
			}
		}
		if err := inc.FeedbackFull(selInc, necessary, failed, deferred); err != nil {
			t.Fatalf("round %d: inc feedback: %v", r, err)
		}
		if err := ora.FeedbackFull(selOra, necessary, failed, deferred); err != nil {
			t.Fatalf("round %d: oracle feedback: %v", r, err)
		}
	}

	if len(incSink.rounds) != tc.rounds || len(oraSink.rounds) != tc.rounds {
		t.Fatalf("trace lengths: inc=%d oracle=%d want %d", len(incSink.rounds), len(oraSink.rounds), tc.rounds)
	}
	for r := range incSink.rounds {
		if !reflect.DeepEqual(incSink.rounds[r], oraSink.rounds[r]) {
			t.Fatalf("trace round %d diverged\ninc:    %+v\noracle: %+v", r, incSink.rounds[r], oraSink.rounds[r])
		}
	}
	if is, os := inc.Stats(), ora.stats; is != os {
		t.Fatalf("stats diverged: inc=%+v oracle=%+v", is, os)
	}
	if !reflect.DeepEqual(inc.Breakers(), ora.Breakers()) {
		t.Fatalf("breaker snapshots diverged")
	}

	st := inc.Incremental()
	if tc.wantHits {
		if st.CacheHits == 0 {
			t.Fatalf("score cache never hit: %+v", st)
		}
		if st.Forwards >= st.Scored {
			t.Fatalf("no forward was saved: %+v", st)
		}
	}
}

// TestReferenceGateSharesNoRoundLogic holds the oracle honest: the reference
// gate's source names none of the production gate's round machinery — the
// incremental selector, the score cache, the dirty-entry bookkeeping, the
// production round driver.
func TestReferenceGateSharesNoRoundLogic(t *testing.T) {
	src, err := os.ReadFile("reference_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Ranked", "cacheValid", "touched", "decideLocked"} {
		if bytes.Contains(src, []byte(name)) {
			t.Errorf("reference_test.go references %q", name)
		}
	}
	if n := bytes.Count(src, []byte("\n")); n > 300 {
		t.Errorf("reference gate is %d lines, ceiling 300", n)
	}
}

// TestIncrementalDecideAllocCeiling pins the steady-state allocation
// behavior of the churn-scaled hot loop: with warm scratch and free lists, a
// low-churn DecideSparseAppend+FeedbackFull round — cache hits, ranked
// merge, sparse feedback and all — must allocate (essentially) nothing.
func TestIncrementalDecideAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector; covered by make alloc-smoke")
	}
	const m = 256
	no := false
	g, err := NewGate(Config{
		Streams: m, Window: 4, Budget: 10, Predictor: tinyPredictor(t, 1, false),
		UseTemporal: false, Explore: &no, DependencyAware: &no,
	})
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*codec.Packet, m)
	nonIdle := make([]int32, m)
	for i := range pkts {
		pkts[i] = &codec.Packet{StreamID: i, Type: codec.PictureP, Size: 900 + i%333, GOPSize: 25, GOPIndex: 1}
		nonIdle[i] = int32(i)
	}
	rnd := codec.Round{M: m, IDs: nonIdle, Pkts: pkts} // every stream active
	necessary := make([]bool, m)
	var sel []int
	lcg := uint64(9)
	run := func() {
		// ~1% churn: a few streams move their packet sizes, the rest replay
		// from the score cache.
		for i := 0; i < 3; i++ {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			pkts[i].Size = 200 + int(lcg>>40)%60000
		}
		var err error
		sel, err = g.DecideSparseAppend(&rnd, sel[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := g.FeedbackFull(sel, necessary[:len(sel)], nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		run() // saturate feature rings, scratch, and free lists
	}
	allocs := testing.AllocsPerRun(24, run)
	const ceiling = 2
	if allocs > ceiling {
		t.Fatalf("steady-state incremental round allocates %.1f times/op, ceiling %d", allocs, ceiling)
	}
	if st := g.Incremental(); st.CacheHits == 0 {
		t.Fatalf("cache never hit during the alloc run: %+v", st)
	}
}
