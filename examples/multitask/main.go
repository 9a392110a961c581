// Multitask: one gate serving two models. Smart-city deployments run
// several inference models on the same streams (§5.2); training a single
// contextual predictor with one output head per task and gating on the
// maximum confidence decodes a packet if *any* model needs it.
//
//	go run ./examples/multitask
package main

import (
	"fmt"
	"log"

	"packetgame"
)

const (
	cameras = 32
	budget  = 8.0
	window  = 5
	rounds  = 2500
)

func fleet(seed int64) []*packetgame.Stream {
	streams := make([]*packetgame.Stream, cameras)
	for i := range streams {
		streams[i] = packetgame.NewStream(packetgame.SceneConfig{
			BaseActivity: 0.4, PersonRate: 0.25,
			AnomalyRate: 90, AnomalyDuration: 20,
		}, packetgame.EncoderConfig{StreamID: i, Codec: packetgame.H265, GOPSize: 25, GOPPhase: i * 7},
			seed+int64(i)*401)
	}
	return streams
}

func main() {
	tasks := []packetgame.Task{packetgame.PersonCounting{}, packetgame.AnomalyDetection{}}

	// 1. One training pass labels every packet for both tasks.
	fmt.Println("training a two-head predictor on PC+AD labels...")
	samples, err := packetgame.CollectSamples(fleet(9000), tasks, window, 4000)
	if err != nil {
		log.Fatal(err)
	}
	train := packetgame.BalanceSamples(samples, 0, 1)
	cfg := packetgame.DefaultPredictorConfig()
	cfg.Tasks = len(tasks)
	pred, err := packetgame.NewPredictor(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := pred.Train(train, packetgame.TrainOptions{Epochs: 30, BatchSize: 256, LR: 0.003}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d samples; %d params shared across %d heads\n\n",
		len(train), pred.NumParams(), len(tasks))

	// 2. Gate with the max-over-heads confidence and score each task's
	// accuracy on its own monitor fleet.
	run := func(name string, taskIndex int, task packetgame.Task) {
		gate, err := packetgame.NewGate(packetgame.GateConfig{
			Streams: cameras, Window: window, Budget: budget,
			Predictor: pred, TaskIndex: taskIndex, UseTemporal: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		eng, err := packetgame.NewEngine(packetgame.EngineConfig{
			Source: packetgame.NewLocalSource(fleet(42), rounds),
			Gate:   gate,
			Task:   task,
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := eng.Run(0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s balanced accuracy %.3f  filter %.1f%%\n",
			name, eng.Fleet().BalancedAccuracy(), rep.GateFilterRate*100)
	}

	// A multi-task deployment gates once for all models: use AllTasks.
	// For comparison, gate the same fleet with each single head.
	fmt.Printf("gating %d cameras at budget %.0f units/round:\n", cameras, budget)
	run("PC head only", 0, packetgame.PersonCounting{})
	run("AD head only", 1, packetgame.AnomalyDetection{})
	run("max-over-heads (PC)", packetgame.AllTaskHeads, packetgame.PersonCounting{})
	run("max-over-heads (AD)", packetgame.AllTaskHeads, packetgame.AnomalyDetection{})
	fmt.Println("\nthe max-over-heads gate serves both models from one decode stream:")
	fmt.Println("a packet is decoded if either counting or anomaly detection needs it.")
}
