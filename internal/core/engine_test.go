package core_test

// End-to-end policy tests: gates and baselines run on pipeline.Engine at its
// defaults (MaxInFlight 1, overlap off — Algorithm 1's strict alternation),
// the loop every policy experiment runs. The oracle and the recall probe
// come from experiments.Eval.

import (
	"testing"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/experiments"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/pipeline"
	"packetgame/internal/predictor"
)

// newEngine builds a default engine gating streams with d.
func newEngine(t *testing.T, streams []*codec.Stream, task infer.Task, d core.Decider) *pipeline.Engine {
	t.Helper()
	eng, err := pipeline.New(pipeline.Config{Source: pipeline.NewLocalSource(streams, 0), Gate: d, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// runEngine runs d over streams for the given rounds.
func runEngine(t *testing.T, streams []*codec.Stream, task infer.Task, d core.Decider, rounds int) (*pipeline.Engine, pipeline.Report) {
	t.Helper()
	eng := newEngine(t, streams, task, d)
	rep, err := eng.Run(rounds)
	if err != nil {
		t.Fatal(err)
	}
	return eng, rep
}

// runEval runs the policy mk builds behind an experiments.Eval that probes
// every probeEvery rounds.
func runEval(t *testing.T, streams []*codec.Stream, task infer.Task, probeEvery, rounds int, mk func(*experiments.Eval) core.Decider) (*experiments.Eval, pipeline.Report) {
	t.Helper()
	ev, eng, err := experiments.NewEval(streams, task)
	if err != nil {
		t.Fatal(err)
	}
	ev.Decider, ev.ProbeEvery = mk(ev), probeEvery
	rep, err := eng.Run(rounds)
	if err != nil {
		t.Fatal(err)
	}
	return ev, rep
}

// mkHetStreams builds a fleet where half the cameras are busy (frequent
// person-count changes) and half are quiet — the regime where cross-stream
// coordination pays off (§3.2).
func mkHetStreams(m int, seed int64) []*codec.Stream {
	streams := make([]*codec.Stream, m)
	for i := range streams {
		sc := codec.SceneConfig{BaseActivity: 0.05, PersonRate: 0.02}
		if i%2 == 0 {
			sc = codec.SceneConfig{BaseActivity: 0.95, PersonRate: 1.2, PersonStay: 4}
		}
		streams[i] = codec.NewStream(sc,
			codec.EncoderConfig{StreamID: i, GOPSize: 25, GOPPhase: i * 7},
			seed+int64(i)*101)
	}
	return streams
}

func TestTemporalGateBeatsRandomOnBurstyPC(t *testing.T) {
	const m, rounds, budget = 20, 3000, 4.0
	balanced := func(d core.Decider) float64 {
		eng, _ := runEngine(t, mkHetStreams(m, 9000), infer.PersonCounting{}, d, rounds)
		return eng.Fleet().BalancedAccuracy()
	}
	gate, err := core.NewGate(core.Config{Streams: m, Budget: budget, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	pg := balanced(gate)
	rnd := balanced(core.NewBaselineGate(m, decode.DefaultCosts, knapsack.NewRandom(1), nil, budget))
	if pg <= rnd {
		t.Errorf("temporal gate balanced accuracy %.3f must beat random %.3f", pg, rnd)
	}
}

func TestOracleDominatesEverything(t *testing.T) {
	const m, rounds, budget = 20, 1000, 5.0
	_, oracle := runEval(t, core.MkStreams(m, 5000), infer.AnomalyDetection{}, 0, rounds, func(ev *experiments.Eval) core.Decider {
		return core.NewBaselineGate(m, decode.DefaultCosts, &knapsack.Greedy{}, ev.OracleValues, budget)
	})
	gate, err := core.NewGate(core.Config{Streams: m, Budget: budget, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	_, pg := runEngine(t, core.MkStreams(m, 5000), infer.AnomalyDetection{}, gate, rounds)
	if oracle.Accuracy < pg.Accuracy-0.02 {
		t.Errorf("oracle %.3f should not lose to PacketGame %.3f", oracle.Accuracy, pg.Accuracy)
	}
	if oracle.Accuracy < 0.9 {
		t.Errorf("oracle accuracy %.3f suspiciously low", oracle.Accuracy)
	}
}

func TestSimulationSegments(t *testing.T) {
	const m, rounds = 5, 120
	g, err := core.NewGate(core.Config{Streams: m, Budget: 3, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := experiments.SegmentAccuracy(newEngine(t, core.MkStreams(m, 77), infer.AnomalyDetection{}, g), rounds, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 6 {
		t.Fatalf("segments = %d, want 6", len(accs))
	}
	for i, a := range accs {
		if a < 0 || a > 1 {
			t.Errorf("segment %d accuracy %v out of range", i, a)
		}
	}
	st := g.Stats()
	if st.Rounds != rounds {
		t.Errorf("gate saw %d rounds, want %d", st.Rounds, rounds)
	}
	if filter := 1 - float64(st.Decoded)/float64(st.Packets); filter <= 0 || filter >= 1 {
		t.Errorf("filter rate = %v", filter)
	}
}

// TestOnlineLearningAdaptsFromScratch starts from an untrained predictor and
// lets the gate fine-tune it online from its own redundancy feedback; the
// online gate must end up beating an identically-initialized frozen gate.
// Each run gets a fresh predictor, because the online gate trains its own in
// place.
func TestOnlineLearningAdaptsFromScratch(t *testing.T) {
	const m, rounds, budget = 16, 4000, 4.0
	mkStreams := func() []*codec.Stream {
		streams := make([]*codec.Stream, m)
		for i := range streams {
			sc := codec.SceneConfig{BaseActivity: 0.05, PersonRate: 0.02}
			if i%2 == 0 {
				sc = codec.SceneConfig{BaseActivity: 0.9, PersonRate: 1.0, PersonStay: 4}
			}
			streams[i] = codec.NewStream(sc, codec.EncoderConfig{StreamID: i, GOPSize: 25},
				int64(i)*311)
		}
		return streams
	}
	run := func(online bool) float64 {
		p, err := predictor.New(predictor.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Streams: m, Budget: budget, Predictor: p, UseTemporal: true}
		if online {
			cfg.OnlineLR = 0.002
			cfg.OnlineBatch = 128
		}
		gate, err := core.NewGate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng, _ := runEngine(t, mkStreams(), infer.PersonCounting{}, gate, rounds)
		return eng.Fleet().BalancedAccuracy()
	}
	frozen := run(false)
	online := run(true)
	t.Logf("frozen %.4f vs online %.4f balanced accuracy", frozen, online)
	if online < frozen-0.02 {
		t.Errorf("online learning hurt: %.4f vs frozen %.4f", online, frozen)
	}
}
