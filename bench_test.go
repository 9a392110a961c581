package packetgame

// Benchmarks, one group per paper table/figure, measuring the computational
// kernel each experiment exercises. The full table regeneration (with paper
// comparisons) lives in cmd/pgbench; these benches quantify the substrate
// and gating costs that determine those results.

import (
	"math/rand"
	"testing"

	"packetgame/internal/bandit"
	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/filter"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/metrics"
	"packetgame/internal/parser"
	"packetgame/internal/pipeline"
	"packetgame/internal/predictor"
)

// --- Fig 2: module throughput ------------------------------------------------

// BenchmarkFig2_DecodeFrame measures the simulated decoder (payload → scene),
// the substrate cost behind every decode throughput number.
func BenchmarkFig2_DecodeFrame(b *testing.B) {
	st := codec.NewStream(codec.SceneConfig{}, codec.EncoderConfig{GOPSize: 25}, 1)
	pkts := make([]*codec.Packet, 256)
	for i := range pkts {
		pkts[i] = st.Next()
	}
	d := decode.NewDecoder(decode.DefaultCosts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(pkts[i%len(pkts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_ConcurrencyMath measures the Fig 2b bottleneck arithmetic.
func BenchmarkFig2_ConcurrencyMath(b *testing.B) {
	mods := []metrics.Module{
		{Name: "decode", Throughput: 870, Load: 1},
		{Name: "filter", Throughput: 3569.4, Load: 1},
		{Name: "infer", Throughput: 753.9, Load: 0.01},
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := metrics.Concurrency(25, mods); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 3: packet representation -------------------------------------------

// BenchmarkFig3_ResidualFeature measures the handcrafted residual baseline.
func BenchmarkFig3_ResidualFeature(b *testing.B) {
	st := codec.NewStream(codec.SceneConfig{}, codec.EncoderConfig{GOPSize: 25}, 1)
	pkts := make([]*codec.Packet, 256)
	for i := range pkts {
		pkts[i] = st.Next()
	}
	var r codec.Residual
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Observe(pkts[i%len(pkts)])
	}
}

// --- Fig 4: cross-stream scheduling ------------------------------------------

// BenchmarkFig4_RoundRobinRound measures one round-robin round over 1000
// streams (the §3.2 baseline at deployment scale).
func BenchmarkFig4_RoundRobinRound(b *testing.B) {
	benchSelectorRound(b, &knapsack.RoundRobin{})
}

// BenchmarkFig4_GreedyOracleRound measures one clairvoyant greedy round over
// 1000 streams.
func BenchmarkFig4_GreedyOracleRound(b *testing.B) {
	benchSelectorRound(b, &knapsack.Greedy{})
}

func benchSelectorRound(b *testing.B, sel knapsack.Selector) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	cands := make([]knapsack.Candidate, 1000)
	for i := range cands {
		cands[i] = knapsack.Candidate{Stream: int32(i), Value: rng.Float64(), Cost: 0.8 + rng.Float64()*2}
	}
	var dst []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = sel.Select(dst[:0], cands, 34.8)
	}
}

// --- Fig 9 / Tab 3: gating rounds --------------------------------------------

// BenchmarkTab3_GateRound1000 measures one full PacketGame gating round at
// the paper's 1000-stream deployment scale: feature windows, temporal
// estimates, contextual predictions, dependency costs, and greedy selection.
func BenchmarkTab3_GateRound1000(b *testing.B) {
	benchGateRound(b, 1000)
}

// BenchmarkTab3_GateRound100 is the 100-stream variant.
func BenchmarkTab3_GateRound100(b *testing.B) {
	benchGateRound(b, 100)
}

func benchGateRound(b *testing.B, m int) {
	b.Helper()
	p, err := predictor.New(predictor.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	gate, err := core.NewGate(core.Config{
		Streams: m, Budget: float64(m) / 25, Predictor: p, UseTemporal: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	streams := make([]*codec.Stream, m)
	for i := range streams {
		streams[i] = codec.NewStream(codec.SceneConfig{BaseActivity: 0.4},
			codec.EncoderConfig{StreamID: i, GOPSize: 25}, int64(i))
	}
	var rnd codec.Round
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rnd.Reset(m)
		for j, st := range streams {
			rnd.Append(int32(j), st.Next())
		}
		sel, err := gate.DecideSparseAppend(&rnd, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := gate.FeedbackFull(sel, make([]bool, len(sel)), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m), "streams/round")
}

// --- Tab 4: plug-in overheads -------------------------------------------------

// BenchmarkTab4_PredictorLatency is the paper's per-frame latency metric:
// a single contextual prediction (paper: 7µs on an edge CPU).
func BenchmarkTab4_PredictorLatency(b *testing.B) {
	p, err := predictor.New(predictor.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	f := predictor.Features{ISizes: make([]float64, 5), PSizes: make([]float64, 5), Temporal: 0.4}
	f.Pict[1] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(f)
	}
	b.ReportMetric(float64(p.FLOPs()), "flops/op")
}

// BenchmarkTab4_InFiLatency measures the on-server frame filter per frame.
func BenchmarkTab4_InFiLatency(b *testing.B) {
	f := filter.NewInFi(1)
	s := codec.Scene{Motion: 0.4, Richness: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Score(s)
	}
}

// BenchmarkTab4_ReductoLatency measures the on-camera filter per frame.
func BenchmarkTab4_ReductoLatency(b *testing.B) {
	f := filter.NewReducto(0.4, 0, 1)
	s := codec.Scene{Motion: 0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Pass(s)
	}
}

// --- Fig 11: multi-task heads --------------------------------------------------

// BenchmarkFig11_MultiTaskPredict measures a two-head prediction (PC+AD).
func BenchmarkFig11_MultiTaskPredict(b *testing.B) {
	cfg := predictor.DefaultConfig()
	cfg.Tasks = 2
	p, err := predictor.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f := predictor.Features{ISizes: make([]float64, 5), PSizes: make([]float64, 5)}
	f.Pict[1] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(f)
	}
}

// --- Fig 12: training ----------------------------------------------------------

// BenchmarkFig12_TrainingEpoch measures one training epoch over 1024
// balanced samples (the cost that scales with training-set size).
func BenchmarkFig12_TrainingEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	samples := make([]predictor.Sample, 1024)
	for i := range samples {
		f := predictor.Features{ISizes: make([]float64, 5), PSizes: make([]float64, 5)}
		for j := range f.ISizes {
			f.ISizes[j] = rng.Float64()
			f.PSizes[j] = rng.Float64()
		}
		f.Pict[1] = 1
		samples[i] = predictor.Sample{F: f, Labels: []float64{float64(i % 2)}}
	}
	p, err := predictor.New(predictor.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Train(samples, predictor.TrainOptions{Epochs: 1, BatchSize: 256}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 13: window lengths -----------------------------------------------------

// BenchmarkFig13_Window5 and _Window25 quantify the throughput cost of a
// longer temporal window (Fig 13b).
func BenchmarkFig13_Window5(b *testing.B)  { benchWindow(b, 5) }
func BenchmarkFig13_Window25(b *testing.B) { benchWindow(b, 25) }

func benchWindow(b *testing.B, w int) {
	b.Helper()
	cfg := predictor.DefaultConfig()
	cfg.Window = w
	p, err := predictor.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f := predictor.Features{ISizes: make([]float64, w), PSizes: make([]float64, w)}
	f.Pict[1] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(f)
	}
	b.ReportMetric(float64(p.FLOPs()), "flops/op")
}

// --- Fig 14: codecs --------------------------------------------------------------

// BenchmarkFig14_EncodeH264 etc. measure synthetic encoding per codec.
func BenchmarkFig14_EncodeH264(b *testing.B)     { benchEncode(b, codec.H264, 0) }
func BenchmarkFig14_EncodeH265(b *testing.B)     { benchEncode(b, codec.H265, 0) }
func BenchmarkFig14_EncodeVP9(b *testing.B)      { benchEncode(b, codec.VP9, 0) }
func BenchmarkFig14_EncodeJPEG2000(b *testing.B) { benchEncode(b, codec.JPEG2000, 0) }

// BenchmarkExtreme_LowBitrate measures encoding at the §6.4 100-Kbps floor.
func BenchmarkExtreme_LowBitrate(b *testing.B) { benchEncode(b, codec.H264, 100_000) }

func benchEncode(b *testing.B, c codec.Codec, bitrate int) {
	b.Helper()
	st := codec.NewStream(codec.SceneConfig{BaseActivity: 0.4},
		codec.EncoderConfig{Codec: c, GOPSize: 25, Bitrate: bitrate}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Next()
	}
}

// --- Tab 5: end-to-end composition -----------------------------------------------

// BenchmarkTab5_PipelineRound measures one engine round with gate + filter +
// inference over 64 streams (the composition Table 5 compares), at the
// engine's defaults: each round is pulled, gated, decoded, filtered, inferred
// and fed back before the next.
func BenchmarkTab5_PipelineRound(b *testing.B) {
	const m = 64
	streams := make([]*codec.Stream, m)
	for i := range streams {
		streams[i] = codec.NewStream(codec.SceneConfig{BaseActivity: 0.4},
			codec.EncoderConfig{StreamID: i, GOPSize: 25}, int64(i))
	}
	gate, err := core.NewGate(core.Config{Streams: m, Budget: 8, UseTemporal: true})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := pipeline.New(pipeline.Config{
		Source: pipeline.NewLocalSource(streams, 0),
		Gate:   gate,
		Task:   infer.PersonCounting{},
		Filter: filter.NewInFi(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := eng.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

// --- Thm 1 / Lemma 1: learning and optimization -----------------------------------

// BenchmarkRegret_EstimatorPush measures one temporal-estimator update over
// 1000 streams.
func BenchmarkRegret_EstimatorPush(b *testing.B) {
	e, err := bandit.NewTemporalEstimator(1000, 5)
	if err != nil {
		b.Fatal(err)
	}
	sel := make([]bool, 1000)
	r := make([]float64, 1000)
	for i := range sel {
		sel[i] = i%3 == 0
		r[i] = float64(i % 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Push(sel, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLemma1_GreedySelect1000 measures the optimizer's O(m log m)
// selection at deployment scale.
func BenchmarkLemma1_GreedySelect1000(b *testing.B) {
	benchSelectorRound(b, &knapsack.Greedy{})
}

// --- substrate: parsing -------------------------------------------------------------

// BenchmarkParser measures incremental bitstream parsing (bytes → metadata).
func BenchmarkParser(b *testing.B) {
	st := codec.NewStream(codec.SceneConfig{}, codec.EncoderConfig{GOPSize: 25}, 1)
	var raw []byte
	{
		var buf = &sliceWriter{}
		bw := codec.NewBitstreamWriter(buf)
		for i := 0; i < 64; i++ {
			if err := bw.WritePacket(st.Next()); err != nil {
				b.Fatal(err)
			}
		}
		raw = buf.data
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parser.ParseAll(raw, parser.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

type sliceWriter struct{ data []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}
