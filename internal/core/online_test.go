package core

import (
	"testing"

	"packetgame/internal/codec"
	"packetgame/internal/predictor"
)

func TestOnlineLearningRequiresPredictor(t *testing.T) {
	_, err := NewGate(Config{Streams: 2, Budget: 5, UseTemporal: true, OnlineLR: 0.001})
	if err == nil {
		t.Error("online learning without a predictor must error")
	}
}

func TestTrainerStepReducesLoss(t *testing.T) {
	p, err := predictor.New(predictor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := predictor.NewTrainer(p, 0.01)
	// A separable batch: positives have large recent P sizes.
	mk := func(pos bool) predictor.Sample {
		f := predictor.Features{ISizes: make([]float64, 5), PSizes: make([]float64, 5)}
		for i := range f.PSizes {
			if pos {
				f.PSizes[i] = 0.8
			} else {
				f.PSizes[i] = 0.2
			}
		}
		f.Pict[1] = 1
		label := 0.0
		if pos {
			label = 1
		}
		return predictor.Sample{F: f, Labels: []float64{label}}
	}
	batch := []predictor.Sample{mk(true), mk(false), mk(true), mk(false)}
	first, err := tr.Step(batch)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 200; i++ {
		last, err = tr.Step(batch)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Errorf("loss did not decrease: first %.4f last %.4f", first, last)
	}
}

func TestTrainerValidation(t *testing.T) {
	p, err := predictor.New(predictor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := predictor.NewTrainer(p, 0)
	if _, err := tr.Step(nil); err == nil {
		t.Error("empty batch must error")
	}
	bad := predictor.Sample{
		F:      predictor.Features{ISizes: make([]float64, 5), PSizes: make([]float64, 5)},
		Labels: []float64{1, 0}, // two labels for one head
	}
	if _, err := tr.Step([]predictor.Sample{bad}); err == nil {
		t.Error("label-count mismatch must error")
	}
}

func TestAllTasksAggregation(t *testing.T) {
	pcfg := predictor.DefaultConfig()
	pcfg.Tasks = 2
	p, err := predictor.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGate(Config{Streams: 4, Budget: 8, Predictor: p, TaskIndex: AllTasks})
	if err != nil {
		t.Fatal(err)
	}
	streams := mkStreams(4, 3)
	for r := 0; r < 30; r++ {
		pkts := make([]*codec.Packet, 4)
		for i, st := range streams {
			pkts[i] = st.Next()
		}
		sel, err := g.Decide(pkts)
		if err != nil {
			t.Fatal(err)
		}
		// The aggregated confidence must be at least either head's value.
		if err := g.Feedback(sel, make([]bool, len(sel))); err != nil {
			t.Fatal(err)
		}
	}
	if g.Stats().Decoded == 0 {
		t.Error("multi-task gate decoded nothing")
	}
	// Online learning cannot target all heads at once.
	if _, err := NewGate(Config{Streams: 2, Budget: 5, Predictor: p, TaskIndex: AllTasks, OnlineLR: 0.01}); err == nil {
		t.Error("AllTasks + online learning must error")
	}
}
