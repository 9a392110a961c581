// Command pgcoord runs the cluster control plane: it owns the fleet
// source, the global decode budget, the consistent-hash placement ring,
// and the per-round knapsack solve, and drives N pggate data-plane
// workers over the cluster protocol (heartbeats, leases, state-transfer,
// budget grants). Workers join with `pggate -join <addr>`; on crash or
// leave the coordinator rebalances only the affected hash arcs and
// migrates stream state to the new owners.
//
// With -journal the control plane is durable: ring membership, the round
// clock, and per-worker governor state land in a snapshot+journal file a
// replacement can resume from. A warm standby (`pgcoord -standby <addr>`)
// follows the primary's journal stream live and takes over on lease
// expiry; a cold one (`pgcoord -takeover <journal>`) elects itself from
// the file a dead coordinator left behind. Workers re-home to the elected
// coordinator through the usual state-transfer path.
//
// Usage:
//
//	pgcoord -listen 127.0.0.1:9570 -workers 4 -streams 1000 -rounds 2000 &
//	pggate -join 127.0.0.1:9570 -name w0   # x4
//
//	pgcoord -listen :9570 -journal coord.pgj ... &       # durable primary
//	pgcoord -listen :9571 -standby 127.0.0.1:9570 ... &  # warm standby
//	pgcoord -listen :9571 -takeover coord.pgj ...        # cold takeover
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"packetgame/internal/cluster"
	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/pipeline"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:9570", "address to accept worker joins on")
		streams   = flag.Int("streams", 64, "synthetic fleet size")
		rounds    = flag.Int("rounds", 2000, "rounds to run")
		budget    = flag.Float64("budget", 8, "global decode budget per round (P-frame units)")
		taskName  = flag.String("task", "PC", "inference task: PC, AD, SR, FD")
		window    = flag.Int("window", 5, "temporal window length")
		workers   = flag.Int("workers", 2, "worker quorum to wait for before round 0")
		seed      = flag.Int64("seed", 1, "random seed")
		slo       = flag.Duration("slo", 0, "per-round latency SLO arming the per-worker governors (0 = exact oracle mode)")
		lease     = flag.Duration("lease", 10*time.Second, "worker lease: silence longer than this reaps the worker")
		heartbeat = flag.Duration("heartbeat", 0, "worker heartbeat period (0 = lease/4)")
		lag       = flag.Int("lag", 1, "feedback lag k: rounds granted but not yet observed when a round is planned (> 1: rounds overlap)")
		journal   = flag.String("journal", "", "durable control-plane state: write a snapshot+journal file here (crash-recoverable via -takeover)")
		standby   = flag.String("standby", "", "primary pgcoord address: run as a warm standby replica that takes over on lease expiry")
		sbName    = flag.String("name", "", "standby name reported to the primary (with -standby)")
		takeover  = flag.String("takeover", "", "journal file of a dead coordinator: elect this process from it (cold takeover, no live primary)")
		rejoin    = flag.Duration("rejoin-wait", 0, "how long an elected standby holds the re-home window before declaring absent workers dead (0 = default)")
		verbose   = flag.Bool("v", false, "log membership changes")
	)
	flag.Parse()

	fleet := make([]*codec.Stream, *streams)
	for i := range fleet {
		fleet[i] = codec.NewStream(
			codec.SceneConfig{BaseActivity: 0.4, PersonRate: 0.3, AnomalyRate: 30,
				FireRate: 30, QualityDropRate: 30},
			codec.EncoderConfig{StreamID: i, GOPSize: 25},
			*seed+int64(i)*7919)
	}

	cfg := cluster.CoordConfig{
		Listen:  *listen,
		Streams: *streams, Window: *window, Budget: *budget,
		UseTemporal: true,
		Breaker:     &core.BreakerConfig{},
		Task:        *taskName, Rounds: *rounds, MinWorkers: *workers,
		Source: pipeline.NewLocalSource(fleet, *rounds),
		SLO:    *slo, Lease: *lease, Heartbeat: *heartbeat,
		MaxInFlight: *lag,
		JournalPath: *journal, RejoinWait: *rejoin,
	}
	if *verbose {
		cfg.OnMembership = func(round int64, joined, died []int) {
			fmt.Printf("pgcoord: round %d membership: joined %v died %v\n", round, joined, died)
		}
	}
	if *standby != "" && *takeover != "" {
		fatal(fmt.Errorf("-standby and -takeover are mutually exclusive"))
	}

	var rep cluster.Report
	switch {
	case *standby != "":
		name := *sbName
		if name == "" {
			name = fmt.Sprintf("standby-%d", os.Getpid())
		}
		sb, err := cluster.NewStandby(*standby, name, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pgcoord: standby %s on %s following primary %s\n", name, sb.Addr(), *standby)
		rep, err = sb.Run()
		if err != nil {
			fatal(err)
		}
		if !sb.TookOver() {
			fmt.Println("pgcoord: primary completed cleanly; standing down")
			return
		}
		fmt.Println("pgcoord: primary lease expired — took over the cluster")
	case *takeover != "":
		c, err := cluster.NewCoordinator(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pgcoord: cold takeover from %s, listening on %s\n", *takeover, c.Addr())
		rep, err = c.TakeoverFromJournal(*takeover)
		if err != nil {
			fatal(err)
		}
	default:
		c, err := cluster.NewCoordinator(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pgcoord: listening on %s, waiting for %d workers (%d streams, budget %.1f)\n",
			c.Addr(), *workers, *streams, *budget)
		rep, err = c.Run()
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("\npgcoord report (%s, budget %.1f)\n", *taskName, *budget)
	fmt.Printf("  rounds            %d\n", rep.Rounds)
	fmt.Printf("  workers           %d admitted, %d joins mid-run, %d deaths\n", rep.Workers, rep.Joins, rep.Deaths)
	fmt.Printf("  decoded           %d\n", rep.Decoded)
	fmt.Printf("  accuracy          %.3f (balanced %.3f, recall %.3f)\n", rep.Accuracy, rep.BalancedAccuracy, rep.Recall)
	fmt.Printf("  migrations        %d state transfers, %d lost, %d fresh adoptions\n",
		rep.Transfers, rep.TransfersLost, rep.FreshAdoptions)
	fmt.Printf("  decision hash     %016x\n", rep.DecisionHash)
	if *slo != 0 {
		fmt.Printf("  SLO               %v: p99 %v, %d rounds missed (mode rounds full/temporal/keyframe/shed %d/%d/%d/%d)\n",
			*slo, rep.P99.Round(time.Microsecond), rep.SLOMisses,
			rep.ModeRounds[0], rep.ModeRounds[1], rep.ModeRounds[2], rep.ModeRounds[3])
	}
	for id, reason := range rep.DeadReasons {
		fmt.Printf("  death             worker %d: %s\n", id, reason)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pgcoord:", err)
	os.Exit(1)
}
