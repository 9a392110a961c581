// Quickstart: gate a small synthetic camera fleet with the temporal
// estimator only (no trained predictor needed), and compare the outcome
// against decoding everything and against round-robin at the same budget.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"packetgame"
)

func main() {
	const (
		cameras = 16
		budget  = 5.0 // decode units per round; decoding all 16 needs ~17
		rounds  = 2000
	)

	// A fleet where half the cameras are busy and half are quiet — the
	// regime where cross-stream coordination matters.
	fleet := func(seed int64) []*packetgame.Stream {
		streams := make([]*packetgame.Stream, cameras)
		for i := range streams {
			sc := packetgame.SceneConfig{BaseActivity: 0.05, PersonRate: 0.02}
			if i%2 == 0 {
				sc = packetgame.SceneConfig{BaseActivity: 0.9, PersonRate: 0.8}
			}
			streams[i] = packetgame.NewStream(sc,
				packetgame.EncoderConfig{StreamID: i, GOPSize: 25, GOPPhase: i * 7}, seed+int64(i)*31)
		}
		return streams
	}

	// The engine's defaults feed each round back before pulling the next.
	run := func(name string, decider packetgame.Decider) packetgame.EngineReport {
		eng, err := packetgame.NewEngine(packetgame.EngineConfig{
			Source: packetgame.NewLocalSource(fleet(42), rounds),
			Gate:   decider,
			Task:   packetgame.PersonCounting{},
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := eng.Run(0)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-12s accuracy %.3f  filter rate %.1f%%  decoded %d/%d packets\n",
			name, rep.Accuracy, rep.GateFilterRate*100, rep.Decoded, rep.Packets)
		return rep
	}

	fmt.Printf("gating %d cameras at budget %.1f units/round (PC task)\n\n", cameras, budget)

	gate, err := packetgame.NewGate(packetgame.GateConfig{
		Streams: cameras, Budget: budget, UseTemporal: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	pg := run("PacketGame", gate)

	rr := run("round-robin", packetgame.NewBaselineGate(
		cameras, packetgame.DefaultCosts, &packetgame.RoundRobin{}, nil, budget))

	allGate := packetgame.NewBaselineGate(cameras, packetgame.DefaultCosts, &packetgame.Greedy{}, nil, 1e9)
	all := run("decode-all", allGate)

	fmt.Printf("\nPacketGame kept %.1f%% of decode-all accuracy using %.1f%% of its decode work\n",
		pg.Accuracy/all.Accuracy*100, gate.Stats().CostSpent/allGate.Stats().CostSpent*100)
	if pg.Accuracy > rr.Accuracy {
		fmt.Println("and beat round-robin at the same budget — cross-stream coordination pays.")
	}
}
