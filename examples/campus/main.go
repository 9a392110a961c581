// Campus: the paper's headline deployment scenario. A Campus1K-style
// diurnal camera fleet runs person counting; the contextual predictor is
// trained offline on a held-out fleet, then the gate processes a full
// (time-compressed) day under a tight decode budget, reporting accuracy
// per daypart against the round-robin baseline.
//
//	go run ./examples/campus
package main

import (
	"fmt"
	"log"

	"packetgame"
)

const (
	cameras = 64
	budget  = 16.0 // ≈ a quarter of the decode-everything cost
	window  = 5
)

func diurnalFleet(seed int64) []*packetgame.Stream {
	streams := make([]*packetgame.Stream, cameras)
	for i := range streams {
		streams[i] = packetgame.NewStream(packetgame.SceneConfig{
			Diurnal: true, TimeCompress: 720, // 2 minutes of frames = 24 hours
			BaseActivity: 0.4, PersonRate: 0.3,
		}, packetgame.EncoderConfig{StreamID: i, Codec: packetgame.H265, GOPSize: 25, GOPPhase: i * 7},
			seed+int64(i)*577)
	}
	return streams
}

func main() {
	// 1. Offline: collect labeled packets from a training fleet and fit
	// the contextual predictor (the §6.1 train-then-freeze workflow).
	fmt.Println("training the contextual predictor on a held-out fleet...")
	trainFleet := make([]*packetgame.Stream, 24)
	for i := range trainFleet {
		trainFleet[i] = packetgame.NewStream(
			packetgame.SceneConfig{BaseActivity: 0.5, PersonRate: 0.4},
			packetgame.EncoderConfig{StreamID: i, Codec: packetgame.H265, GOPSize: 25, GOPPhase: i * 7},
			9000+int64(i)*131)
	}
	samples, err := packetgame.CollectSamples(trainFleet,
		[]packetgame.Task{packetgame.PersonCounting{}}, window, 4000)
	if err != nil {
		log.Fatal(err)
	}
	train := packetgame.BalanceSamples(samples, 0, 1)
	pred, err := packetgame.NewPredictor(packetgame.DefaultPredictorConfig())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := pred.Train(train, packetgame.TrainOptions{Epochs: 30, BatchSize: 256, LR: 0.003}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d balanced samples (%d params, %d FLOPs/decision)\n\n",
		len(train), pred.NumParams(), pred.FLOPs())

	// 2. Online: one simulated day on the diurnal fleet, run on the pipeline
	// engine one daypart at a time; each daypart's balanced accuracy comes
	// from the fleet's class totals before and after it.
	run := func(name string, d packetgame.Decider) float64 {
		eng, err := packetgame.NewEngine(packetgame.EngineConfig{
			Source: packetgame.NewLocalSource(diurnalFleet(42), 0),
			Gate:   d,
			Task:   packetgame.PersonCounting{},
		})
		if err != nil {
			log.Fatal(err)
		}
		var decoded, packets int64
		var prev [4]int64
		dayparts := ""
		for part := 0; part < 4; part++ { // 24h in 4 dayparts
			rep, err := eng.Run(25 * 60 * 2 / 4)
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			decoded, packets = decoded+rep.Decoded, packets+rep.Packets
			nr, nc, pr, pc := eng.Fleet().ClassTotals()
			if a, ok := packetgame.BalancedAccuracy(nr-prev[0], nc-prev[1], pr-prev[2], pc-prev[3]); ok {
				dayparts += fmt.Sprintf(" %.3f", a)
			}
			prev = [4]int64{nr, nc, pr, pc}
		}
		acc := eng.Fleet().Accuracy()
		fmt.Printf("%-12s accuracy %.3f  filter %.1f%%  dayparts:%s\n",
			name, acc, (1-float64(decoded)/float64(packets))*100, dayparts)
		return acc
	}

	fmt.Printf("gating %d diurnal cameras for one day at budget %.0f units/round\n", cameras, budget)
	gate, err := packetgame.NewGate(packetgame.GateConfig{
		Streams: cameras, Window: window, Budget: budget,
		Predictor: pred, UseTemporal: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	pg := run("PacketGame", gate)
	rr := run("round-robin", packetgame.NewBaselineGate(
		cameras, packetgame.DefaultCosts, &packetgame.RoundRobin{}, nil, budget))

	fmt.Printf("\nday-long accuracy: PacketGame %.3f vs round-robin %.3f at the same budget\n", pg, rr)
	fmt.Println("(expect the gap to widen in the commute-peak dayparts)")
}
