package core_test

import (
	"testing"

	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/experiments"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
)

// temporalGate builds the policy the probe tests gate with.
func temporalGate(t *testing.T, m int, budget float64) func(*experiments.Eval) core.Decider {
	return func(*experiments.Eval) core.Decider {
		g, err := core.NewGate(core.Config{Streams: m, Budget: budget, UseTemporal: true})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

func TestProbeDisabledByDefault(t *testing.T) {
	ev, _ := runEval(t, core.MkStreams(4, 1), infer.AnomalyDetection{}, 0, 50, temporalGate(t, 4, 3))
	if ev.Recall() != -1 || ev.ProbeRounds != 0 {
		t.Errorf("probe stats without probing: %v / %d", ev.Recall(), ev.ProbeRounds)
	}
}

func TestProbeCountsRounds(t *testing.T) {
	ev, _ := runEval(t, core.MkStreams(4, 2), infer.AnomalyDetection{}, 10, 100, temporalGate(t, 4, 3))
	if ev.ProbeRounds != 10 {
		t.Errorf("probe rounds = %d, want 10", ev.ProbeRounds)
	}
	if r := ev.Recall(); r < 0 || r > 1 {
		t.Errorf("probed recall = %v", r)
	}
}

func TestProbeRecallPerfectWithUnlimitedBudget(t *testing.T) {
	// With budget to decode everything, recall must be 1: every necessary
	// packet is decoded.
	ev, _ := runEval(t, core.MkStreams(4, 3), infer.PersonCounting{}, 5, 200, func(*experiments.Eval) core.Decider {
		return core.NewBaselineGate(4, decode.DefaultCosts, &knapsack.Greedy{}, nil, 1e9)
	})
	if r := ev.Recall(); r != 1 {
		t.Errorf("recall with unlimited budget = %v, want 1", r)
	}
}

func TestProbeOracleOutperformsRandomRecall(t *testing.T) {
	recall := func(mk func(*experiments.Eval) core.Decider) float64 {
		ev, _ := runEval(t, core.MkStreams(12, 4), infer.AnomalyDetection{}, 3, 900, mk)
		return ev.Recall()
	}
	oracle := recall(func(ev *experiments.Eval) core.Decider {
		return core.NewBaselineGate(12, decode.DefaultCosts, &knapsack.Greedy{}, ev.OracleValues, 4)
	})
	random := recall(func(*experiments.Eval) core.Decider {
		return core.NewBaselineGate(12, decode.DefaultCosts, knapsack.NewRandom(1), nil, 4)
	})
	if oracle <= random {
		t.Errorf("oracle recall %.3f must beat random %.3f", oracle, random)
	}
}
