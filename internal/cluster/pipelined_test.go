package cluster

import (
	"fmt"
	"testing"
	"time"
)

// pipeCfg arms the governed configuration the pipelined tests share at
// feedback lag lag. The SLO + LatencyModel make the budget governor live, so
// the lag genuinely shapes decisions.
func pipeCfg(p clusterParams, lag int) CoordConfig {
	cfg := coordConfig(p)
	cfg.SLO = 20 * time.Millisecond
	cfg.LatencyModel = func(worker int, granted, offered float64) time.Duration {
		return time.Duration(granted * float64(40*time.Microsecond))
	}
	cfg.MaxInFlight = lag
	return cfg
}

// TestClusterPipelinedOracleEquality: ungoverned (SLO=0), the reconciler is
// a constant and feedback never shapes a plan — so a pipelined run at any
// lag must stay bit-identical to the single giant gate, exactly like the
// lockstep oracle-equality contract.
func TestClusterPipelinedOracleEquality(t *testing.T) {
	p := clusterParams{m: 512, workers: 3, rounds: 40, window: 4, seed: 42}
	if testing.Short() {
		p.m, p.rounds = 96, 25
	}
	p.budget = 4 + float64(p.m)/8
	oracle := oracleSelections(t, p)

	cfg := coordConfig(p)
	cfg.MaxInFlight = 3
	rep, sels, _ := runCluster(t, cfg, p.workers, nil)
	assertSelectionsEqual(t, oracle, sels)
	if rep.Rounds != int64(p.rounds) {
		t.Fatalf("pipelined run truncated: %d rounds, want %d", rep.Rounds, p.rounds)
	}
}

// pipelinedChaosRun is chaosRun's pipelined twin: two pinned worker crashes
// and one pinned rejoin under the governed SLO, with rounds overlapped at
// lag 2. Membership changes force the coordinator to drain the in-flight
// window before the ring moves.
func pipelinedChaosRun(t *testing.T, p clusterParams) Report {
	t.Helper()
	cfg := pipeCfg(p, 2)
	var c *Coordinator
	cfg.OnRoundEnd = func(round int64) {
		if round != 24 {
			return
		}
		go Dial(c.Addr(), WorkerOptions{Name: "replacement"})
		for c.PendingJoins() == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	var err error
	c, err = NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	done := startRun(c)
	startWorkers(t, c.Addr(), p.workers, func(i int) WorkerOptions {
		o := WorkerOptions{Name: fmt.Sprintf("w%d", i)}
		switch i {
		case 1:
			o.CrashAfter = 10
		case 2:
			o.CrashAfter = 18
		}
		return o
	})
	return awaitRun(t, done)
}

// TestClusterPipelinedChaosDeterminism: worker crashes and a rejoin during a
// pipelined run stay seed-reproducible — the in-flight window drains at the
// membership boundary, so two same-seed runs make bit-identical decision
// sequences even though crash detection can land at different protocol
// points.
func TestClusterPipelinedChaosDeterminism(t *testing.T) {
	p := clusterParams{m: 192, workers: 4, rounds: 160, window: 4, seed: 31}
	if testing.Short() {
		p.m = 96
	}
	p.budget = 4 + float64(p.m)/8

	run1 := pipelinedChaosRun(t, p)
	run2 := pipelinedChaosRun(t, p)
	if run1.DecisionHash != run2.DecisionHash {
		t.Fatalf("pipelined chaos runs diverged: %x vs %x", run1.DecisionHash, run2.DecisionHash)
	}
	if run1.Deaths != 2 || run1.Joins != 1 {
		t.Fatalf("chaos membership: deaths=%d joins=%d, want 2/1", run1.Deaths, run1.Joins)
	}
	if run1.Rounds != int64(p.rounds) {
		t.Fatalf("chaos run truncated: %d rounds", run1.Rounds)
	}
}
