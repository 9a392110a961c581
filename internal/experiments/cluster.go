package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"packetgame/internal/cluster"
	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/pipeline"
)

// clusterSLO is the per-round decode latency objective of the benchmark
// cluster; the virtual latency model below charges 40µs per granted cost
// unit, so the stable fleet sits at roughly half the objective.
const clusterSLO = 20 * time.Millisecond

// Cluster exercises the distributed gating cluster under chaos: a stable
// 8-worker run sets the recall and p99 baseline, then a same-seed chaos run
// kills two workers at pinned round boundaries and rejoins a replacement,
// and a second chaos run re-checks bit-identical decision hashes. At full
// scale the acceptance bounds hold: chaos recall within 2% of the stable
// cluster and cluster p99 within the SLO through the rebalancing storm, and
// the report is written to BENCH_cluster.json.
func Cluster(o Options) error {
	o = o.withDefaults()
	m := o.scaled(2000, 96)
	const workers = 8
	rounds := o.scaled(400, 60)
	sc := clusterScenario{
		m: m, workers: workers, rounds: rounds,
		budget: 4 + float64(m)/8, window: 4, seed: o.Seed,
		crash1: int64(rounds / 8), crash2: int64(rounds / 5), join: int64(rounds / 4),
	}

	o.printf("=== Distributed gating cluster: %d streams x %d workers, %d rounds, SLO %v ===\n",
		m, workers, rounds, clusterSLO)

	stable, err := clusterLegRun(sc, false)
	if err != nil {
		return err
	}
	o.printf("stable:  %s\n", stable.line())

	chaos, err := clusterLegRun(sc, true)
	if err != nil {
		return err
	}
	o.printf("chaos:   %s\n", chaos.line())
	chaos2, err := clusterLegRun(sc, true)
	if err != nil {
		return err
	}
	deterministic := chaos.DecisionHash == chaos2.DecisionHash
	o.printf("chaos repeat: hash %s — determinism %v\n", chaos2.DecisionHash, deterministic)

	drift := chaos.Recall - stable.Recall
	o.printf("recall drift vs stable: %+0.4f (bound at full scale: ±0.02)\n", drift)

	if !deterministic {
		return fmt.Errorf("cluster: same-seed chaos runs diverged (%s vs %s)",
			chaos.DecisionHash, chaos2.DecisionHash)
	}
	if chaos.Deaths != 2 || chaos.Joins != 1 {
		return fmt.Errorf("cluster: chaos membership deaths=%d joins=%d, want 2/1", chaos.Deaths, chaos.Joins)
	}
	if chaos.Rounds != int64(sc.rounds) || stable.Rounds != int64(sc.rounds) {
		return fmt.Errorf("cluster: truncated runs (stable %d, chaos %d of %d rounds)",
			stable.Rounds, chaos.Rounds, sc.rounds)
	}
	if o.Scale >= 1 {
		if drift < -0.02 || drift > 0.02 {
			return fmt.Errorf("cluster: chaos recall %0.4f vs stable %0.4f exceeds the 2%% bound",
				chaos.Recall, stable.Recall)
		}
		sloNs := float64(clusterSLO.Nanoseconds())
		if float64(stable.P99Ms)*1e6 > sloNs || float64(chaos.P99Ms)*1e6 > sloNs {
			return fmt.Errorf("cluster: p99 breached the %v SLO (stable %.2fms, chaos %.2fms)",
				clusterSLO, stable.P99Ms, chaos.P99Ms)
		}
		rep := clusterReport{
			Meta: benchMeta("cluster"),
			M:    m, Workers: workers, Rounds: rounds, Seed: o.Seed,
			SLOMs:       float64(clusterSLO) / 1e6,
			CrashRounds: []int64{sc.crash1, sc.crash2}, JoinRound: sc.join,
			DeterminismOK: deterministic, RecallDrift: drift,
			Stable: stable, Chaos: chaos,
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile("BENCH_cluster.json", append(buf, '\n'), 0o644); err != nil {
			return err
		}
		o.printf("\nwrote BENCH_cluster.json\n")
	} else {
		o.printf("\n(scale %.2f < 1: BENCH_cluster.json not written)\n", o.Scale)
	}
	return nil
}

type clusterScenario struct {
	m, workers, rounds   int
	budget               float64
	window               int
	seed                 int64
	crash1, crash2, join int64
}

type clusterLeg struct {
	ElapsedMs      float64 `json:"elapsed_ms"`
	MsPerRound     float64 `json:"ms_per_round"`
	Rounds         int64   `json:"rounds"`
	Deaths         int     `json:"deaths"`
	Joins          int     `json:"joins"`
	Decoded        int64   `json:"decoded"`
	Transfers      int64   `json:"transfers"`
	TransfersLost  int64   `json:"transfers_lost"`
	FreshAdoptions int64   `json:"fresh_adoptions"`
	Recall         float64 `json:"recall"`
	Accuracy       float64 `json:"accuracy"`
	P99Ms          float64 `json:"p99_ms"`
	SLOMisses      int64   `json:"slo_misses"`
	DecisionHash   string  `json:"decision_hash"`
}

func (l clusterLeg) line() string {
	return fmt.Sprintf("recall %0.4f acc %0.4f p99 %0.2fms misses %d decoded %d deaths %d joins %d hash %s",
		l.Recall, l.Accuracy, l.P99Ms, l.SLOMisses, l.Decoded, l.Deaths, l.Joins, l.DecisionHash)
}

type clusterReport struct {
	Meta          BenchMeta  `json:"meta"`
	M             int        `json:"m"`
	Workers       int        `json:"workers"`
	Rounds        int        `json:"rounds"`
	Seed          int64      `json:"seed"`
	SLOMs         float64    `json:"slo_ms"`
	CrashRounds   []int64    `json:"crash_rounds"`
	JoinRound     int64      `json:"join_round"`
	DeterminismOK bool       `json:"determinism_ok"`
	RecallDrift   float64    `json:"recall_drift"`
	Stable        clusterLeg `json:"stable"`
	Chaos         clusterLeg `json:"chaos"`
}

// clusterFleet builds the benchmark's deterministic camera fleet with
// staggered GOP phases (the same construction the cluster oracle tests use).
func clusterFleet(m int, seed int64) []*codec.Stream {
	fleet := make([]*codec.Stream, m)
	for i := range fleet {
		fleet[i] = codec.NewStream(
			codec.SceneConfig{BaseActivity: 0.5, PersonRate: 0.4},
			codec.EncoderConfig{StreamID: i, GOPSize: 12, GOPPhase: i % 12},
			seed+int64(i)*7919)
	}
	return fleet
}

// clusterLegRun executes one full cluster run — coordinator plus workers in
// this process over loopback TCP — and condenses the report into a leg.
// When chaos is set, workers 1 and 2 crash after the scenario's pinned
// rounds and one replacement joins at the pinned boundary.
func clusterLegRun(sc clusterScenario, chaos bool) (clusterLeg, error) {
	cfg := cluster.CoordConfig{
		Streams: sc.m, Window: sc.window, Budget: sc.budget,
		UseTemporal: true,
		Breaker:     &core.BreakerConfig{FailureThreshold: 3, GapThreshold: 50, Cooldown: 6},
		Task:        "pc", Rounds: sc.rounds, MinWorkers: sc.workers,
		Source: pipeline.NewLocalSource(clusterFleet(sc.m, sc.seed), 0),
		Lease:  30 * time.Second, Heartbeat: 100 * time.Millisecond,
		SLO: clusterSLO,
		// Virtual latencies keep governed runs seed-reproducible: decode
		// cost, not wall clock, drives the SLO view.
		LatencyModel: func(worker int, granted, offered float64) time.Duration {
			return time.Duration(granted * float64(40*time.Microsecond))
		},
	}
	var c *cluster.Coordinator
	if chaos {
		cfg.OnRoundEnd = func(round int64) {
			if round != sc.join {
				return
			}
			go cluster.Dial(c.Addr(), cluster.WorkerOptions{Name: "replacement"})
			for c.PendingJoins() == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}
	var err error
	c, err = cluster.NewCoordinator(cfg)
	if err != nil {
		return clusterLeg{}, err
	}
	type runResult struct {
		rep     cluster.Report
		elapsed time.Duration
		err     error
	}
	done := make(chan runResult, 1)
	go func() {
		start := time.Now()
		rep, err := c.Run()
		done <- runResult{rep, time.Since(start), err}
	}()
	ws := make([]*cluster.Worker, sc.workers)
	for i := range ws {
		o := cluster.WorkerOptions{Name: fmt.Sprintf("w%d", i)}
		if chaos {
			switch i {
			case 1:
				o.CrashAfter = sc.crash1
			case 2:
				o.CrashAfter = sc.crash2
			}
		}
		w, err := cluster.Dial(c.Addr(), o)
		if err != nil {
			return clusterLeg{}, fmt.Errorf("worker %d dial: %w", i, err)
		}
		ws[i] = w
	}
	res := <-done
	if res.err != nil {
		return clusterLeg{}, res.err
	}
	for i, w := range ws {
		if err := w.Wait(); err != nil && !w.Crashed() {
			return clusterLeg{}, fmt.Errorf("worker %d: %w", i, err)
		}
	}
	rep := res.rep
	return clusterLeg{
		ElapsedMs:  float64(res.elapsed.Nanoseconds()) / 1e6,
		MsPerRound: float64(res.elapsed.Nanoseconds()) / 1e6 / float64(max(rep.Rounds, 1)),
		Rounds:     rep.Rounds, Deaths: rep.Deaths, Joins: rep.Joins,
		Decoded: rep.Decoded, Transfers: rep.Transfers,
		TransfersLost: rep.TransfersLost, FreshAdoptions: rep.FreshAdoptions,
		Recall: rep.Recall, Accuracy: rep.Accuracy,
		P99Ms: float64(rep.P99.Nanoseconds()) / 1e6, SLOMisses: rep.SLOMisses,
		DecisionHash: fmt.Sprintf("%016x", rep.DecisionHash),
	}, nil
}
