package packetgame

import (
	"bytes"
	"net"
	"testing"

	"packetgame/internal/stream"
)

// TestPublicAPIQuickstart walks the public API exactly like a downstream
// user would: build a fleet, train a predictor, gate it on the engine, and
// compare against a baseline.
func TestPublicAPIQuickstart(t *testing.T) {
	const m, window = 10, 5

	// 1. A small camera fleet.
	streams := make([]*Stream, m)
	for i := range streams {
		streams[i] = NewStream(
			SceneConfig{BaseActivity: 0.5, PersonRate: 0.4},
			EncoderConfig{StreamID: i, GOPSize: 25},
			int64(i)*17,
		)
	}

	// 2. Offline training data for the PC task.
	trainStreams := make([]*Stream, m)
	for i := range trainStreams {
		trainStreams[i] = NewStream(
			SceneConfig{BaseActivity: 0.5, PersonRate: 0.4},
			EncoderConfig{StreamID: i, GOPSize: 25, GOPPhase: i * 7},
			1000+int64(i)*17,
		)
	}
	samples, err := CollectSamples(trainStreams, []Task{PersonCounting{}}, window, 800)
	if err != nil {
		t.Fatal(err)
	}
	balanced := BalanceSamples(samples, 0, 1)
	if len(balanced) == 0 {
		t.Fatal("no balanced samples")
	}

	// 3. Train the contextual predictor.
	p, err := NewPredictor(DefaultPredictorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(balanced, TrainOptions{Epochs: 8, BatchSize: 256}); err != nil {
		t.Fatal(err)
	}

	// 4. Save and reload the binary runtime file.
	var weights bytes.Buffer
	if err := p.Save(&weights); err != nil {
		t.Fatal(err)
	}
	deployed, err := NewPredictor(DefaultPredictorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := deployed.Load(&weights); err != nil {
		t.Fatal(err)
	}

	// 5. Gate the fleet online, one round decided, decoded, inferred and fed
	// back at a time.
	gate, err := NewGate(GateConfig{
		Streams: m, Window: window, Budget: 4,
		Predictor: deployed, UseTemporal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(streams []*Stream, d Decider) EngineReport {
		eng, err := NewEngine(EngineConfig{Source: NewLocalSource(streams, 600), Gate: d, Task: PersonCounting{}})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	res := run(streams, gate)
	if res.Accuracy <= 0.5 {
		t.Errorf("gated accuracy = %.3f", res.Accuracy)
	}
	if res.GateFilterRate <= 0.3 {
		t.Errorf("filter rate = %.3f, expected heavy gating at budget 4/%d", res.GateFilterRate, m)
	}

	// 6. Compare against the round-robin baseline at the same budget.
	rrStreams := make([]*Stream, m)
	for i := range rrStreams {
		rrStreams[i] = NewStream(
			SceneConfig{BaseActivity: 0.5, PersonRate: 0.4},
			EncoderConfig{StreamID: i, GOPSize: 25},
			int64(i)*17,
		)
	}
	rrRes := run(rrStreams, NewBaselineGate(m, DefaultCosts, &RoundRobin{}, nil, 4))
	t.Logf("PacketGame %.3f vs round-robin %.3f accuracy at budget 4", res.Accuracy, rrRes.Accuracy)
}

func TestPublicAPITaskByName(t *testing.T) {
	for _, name := range []string{"PC", "AD", "SR", "FD"} {
		task, err := TaskByName(name)
		if err != nil || task.Name() != name {
			t.Errorf("TaskByName(%q) = %v, %v", name, task, err)
		}
	}
}

func TestPublicAPIDatasets(t *testing.T) {
	if got := len(Campus1K(Campus1KConfig{Cameras: 7, Seed: 1})); got != 7 {
		t.Errorf("campus = %d", got)
	}
	if got := len(YTUGC(YTUGCConfig{Videos: 5, Seed: 1})); got != 5 {
		t.Errorf("ugc = %d", got)
	}
	if got := len(FireNet(FireNetConfig{Videos: 4, Seed: 1})); got != 4 {
		t.Errorf("fire = %d", got)
	}
}

func TestPublicAPICurve(t *testing.T) {
	points, err := TradeoffCurve([]float64{0.1, 0.9}, []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := FilterRateAt(points, 0.99); !ok || r != 0.5 {
		t.Errorf("FilterRateAt = %v, %v", r, ok)
	}
}

func TestPublicAPIDecoderAndParser(t *testing.T) {
	st := NewStream(SceneConfig{}, EncoderConfig{GOPSize: 4}, 7)
	p := st.Next()
	d := NewDecoder(DefaultCosts)
	f, err := d.Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Seq != 0 {
		t.Errorf("frame seq = %d", f.Seq)
	}
	// Parser facade over an empty chunk stream.
	pr := NewParser(ParserOptions{})
	if n, err := pr.Feed(nil); err != nil || n != 0 {
		t.Errorf("Feed(nil) = %d, %v", n, err)
	}
	if pkts, err := ParseAll(nil, ParserOptions{}); err != nil || len(pkts) != 0 {
		t.Errorf("ParseAll(nil) = %v, %v", pkts, err)
	}
}

func TestPublicAPITrainerAndOnlineGate(t *testing.T) {
	p, err := NewPredictor(DefaultPredictorConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(p, 0.01)
	s := Sample{
		F:      Features{ISizes: make([]float64, 5), PSizes: make([]float64, 5)},
		Labels: []float64{1},
	}
	if _, err := tr.Step([]Sample{s}); err != nil {
		t.Fatal(err)
	}
	// Online gate through the facade.
	gate, err := NewGate(GateConfig{
		Streams: 2, Budget: 3, Predictor: p, UseTemporal: true, OnlineLR: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	if gate.Stats().Rounds != 0 {
		t.Error("fresh gate has rounds")
	}
}

func TestPublicAPIEngineOverLocalSource(t *testing.T) {
	streams := []*Stream{
		NewStream(SceneConfig{BaseActivity: 0.5}, EncoderConfig{StreamID: 0, GOPSize: 5}, 1),
		NewStream(SceneConfig{BaseActivity: 0.5}, EncoderConfig{StreamID: 1, GOPSize: 5}, 2),
	}
	gate, err := NewGate(GateConfig{Streams: 2, Budget: 4, UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineConfig{
		Source: NewLocalSource(streams, 30),
		Gate:   gate,
		Task:   AnomalyDetection{},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 30 || rep.Decoded == 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestPublicAPINetStreaming(t *testing.T) {
	// The facade's DialStream against an in-process server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := stream.Serve(ln, stream.ServerConfig{
		NewStreams: func() []*Stream {
			return []*Stream{NewStream(SceneConfig{}, EncoderConfig{GOPSize: 5}, 3)}
		},
		Rounds: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialStream(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	src := NewNetSource(c)
	n := 0
	for {
		if _, err := src.NextRound(); err != nil {
			break
		}
		n++
	}
	if n != 5 {
		t.Errorf("rounds over the wire = %d, want 5", n)
	}
}
