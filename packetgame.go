// Package packetgame is a reproduction of "PacketGame: Multi-Stream Packet
// Gating for Concurrent Video Inference at Scale" (SIGCOMM 2023): a gating
// plug-in between the packet parser and the video decoder that selects, per
// round and under a decoding budget, which streams' packets are worth
// decoding — before any pixels exist.
//
// The public API re-exports the building blocks a downstream user needs:
//
//   - Gate (the paper's Algorithm 1) with its temporal estimator,
//     contextual predictor, and combinatorial optimizer;
//   - the synthetic video substrate (scene models, encoders, bitstreams,
//     parser, PGSP network streaming);
//   - the decoder cost model and the four inference-task simulators;
//   - dataset generators mirroring the paper's corpora and the training
//     helpers for the contextual predictor;
//   - the end-to-end pipeline engine and the evaluation metrics.
//
// See examples/quickstart for the fastest path from zero to a gated
// pipeline, and DESIGN.md for the mapping from paper sections to packages.
package packetgame

import (
	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/dataset"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/knapsack"
	"packetgame/internal/metrics"
	"packetgame/internal/parser"
	"packetgame/internal/pipeline"
	"packetgame/internal/predictor"
	"packetgame/internal/stream"
)

// Core gating API (paper §4-5).
type (
	// Gate is the multi-stream packet gating algorithm (Alg. 1).
	Gate = core.Gate
	// GateConfig parameterizes a Gate.
	GateConfig = core.Config
	// GateStats are a Gate's lifetime counters.
	GateStats = core.Stats
	// Decider is the gating protocol (Gate, baselines, or your own policy):
	// DecideSparseAppend picks from one Round, FeedbackFull acks it.
	Decider = core.Decider
	// Round is one round's packets: the streams that delivered one, ids
	// ascending, packets parallel.
	Round = codec.Round
	// BaselineGate wraps a plain selector (round-robin, random, oracle).
	BaselineGate = core.BaselineGate
	// ValueFunc scores a round's packets for a BaselineGate, parallel to the
	// round's ids.
	ValueFunc = core.ValueFunc
)

// AllTaskHeads is the GateConfig.TaskIndex sentinel for multi-task gating:
// confidence is the maximum over all predictor heads, so a packet is decoded
// if any co-deployed model needs it.
const AllTaskHeads = core.AllTasks

// NewGate builds a PacketGame gate.
func NewGate(cfg GateConfig) (*Gate, error) { return core.NewGate(cfg) }

// NewBaselineGate builds a value-agnostic or oracle baseline policy.
func NewBaselineGate(m int, cm CostModel, sel Selector, values ValueFunc, budget float64) *BaselineGate {
	return core.NewBaselineGate(m, cm, sel, values, budget)
}

// Video substrate (codecs, packets, parsing).
type (
	// Packet is one parsed video packet (metadata + payload).
	Packet = codec.Packet
	// PictureType is I, P, or B.
	PictureType = codec.PictureType
	// Codec identifies a video codec.
	Codec = codec.Codec
	// Scene is the ground-truth frame content of the simulator.
	Scene = codec.Scene
	// SceneConfig parameterizes a scene model.
	SceneConfig = codec.SceneConfig
	// EncoderConfig parameterizes a synthetic encoder.
	EncoderConfig = codec.EncoderConfig
	// Stream is a complete synthetic camera (scene model + encoder).
	Stream = codec.Stream
	// Parser is the incremental av_parser_parse2-style bitstream parser.
	Parser = parser.Parser
	// ParserOptions configures a Parser.
	ParserOptions = parser.Options
)

// Picture types and codecs.
const (
	PictureI = codec.PictureI
	PictureP = codec.PictureP
	PictureB = codec.PictureB

	H264     = codec.H264
	H265     = codec.H265
	VP9      = codec.VP9
	JPEG2000 = codec.JPEG2000
)

// NewStream builds a synthetic camera.
func NewStream(sc SceneConfig, ec EncoderConfig, seed int64) *Stream {
	return codec.NewStream(sc, ec, seed)
}

// NewParser builds an incremental bitstream parser.
func NewParser(opts ParserOptions) *Parser { return parser.New(opts) }

// ParseAll parses a complete in-memory bitstream.
func ParseAll(data []byte, opts ParserOptions) ([]*Packet, error) {
	return parser.ParseAll(data, opts)
}

// ParseAllAppend is ParseAll into caller-owned scratch: packets are appended
// to dst so per-round re-parses recycle one slice.
func ParseAllAppend(dst []*Packet, data []byte, opts ParserOptions) ([]*Packet, error) {
	return parser.ParseAllAppend(dst, data, opts)
}

// Decoding.
type (
	// CostModel gives per-picture-type decode costs.
	CostModel = decode.CostModel
	// Frame is one decoded frame.
	Frame = decode.Frame
	// Decoder turns packets into frames and accounts cost.
	Decoder = decode.Decoder
	// DependencyTracker tracks GOP reference debt for one stream.
	DependencyTracker = decode.Tracker
)

// DefaultCosts is the paper-calibrated cost model (I≈2.9×P, B≈0.8×P).
var DefaultCosts = decode.DefaultCosts

// NewDecoder creates a decoder.
func NewDecoder(cm CostModel) *Decoder { return decode.NewDecoder(cm) }

// Inference tasks.
type (
	// Task is a simulated inference model with redundancy feedback.
	Task = infer.Task
	// Result is one inference output.
	Result = infer.Result
	// Monitor tracks one stream's emitted result under gating.
	Monitor = infer.Monitor
	// Fleet is a set of per-stream monitors.
	Fleet = infer.Fleet

	// PersonCounting is the PC task (Campus1K).
	PersonCounting = infer.PersonCounting
	// AnomalyDetection is the AD task (Campus1K).
	AnomalyDetection = infer.AnomalyDetection
	// SuperResolution is the SR task (YT-UGC).
	SuperResolution = infer.SuperResolution
	// FireDetection is the FD task (FireNet).
	FireDetection = infer.FireDetection
)

// TaskByName resolves "PC", "AD", "SR", or "FD".
func TaskByName(name string) (Task, error) { return infer.ByName(name) }

// BalancedAccuracy is the class-mean accuracy of class counts such as
// Fleet.ClassTotals returns (ok is false when no class occurred).
func BalancedAccuracy(nr, nc, pr, pc int64) (v float64, ok bool) {
	return infer.BalancedAccuracy(nr, nc, pr, pc)
}

// Contextual predictor.
type (
	// Predictor is the multi-view contextual predictor (Fig 7).
	Predictor = predictor.Predictor
	// PredictorConfig parameterizes a Predictor.
	PredictorConfig = predictor.Config
	// TrainOptions configures offline training.
	TrainOptions = predictor.TrainOptions
	// Sample is one training example.
	Sample = predictor.Sample
	// Features is one gating decision's input.
	Features = predictor.Features
	// FeatureWindow is the per-stream sliding feature window.
	FeatureWindow = predictor.Window
)

// DefaultPredictorConfig returns the paper's hyper-parameters (§6.1).
func DefaultPredictorConfig() PredictorConfig { return predictor.DefaultConfig() }

// NewPredictor builds a contextual predictor.
func NewPredictor(cfg PredictorConfig) (*Predictor, error) { return predictor.New(cfg) }

// Trainer performs incremental online updates on a predictor (the gate's
// OnlineLR option uses one internally; expose it for custom loops).
type Trainer = predictor.Trainer

// NewTrainer creates an online trainer with persistent RMSprop state.
func NewTrainer(p *Predictor, lr float64) *Trainer { return predictor.NewTrainer(p, lr) }

// Selectors (combinatorial optimizer and baselines).
type (
	// Selector chooses a budget-feasible subset of a round's candidates:
	// one method, Select(dst, cands, budget), appending the chosen stream
	// ids to dst. Config.Selector nil means the gate's built-in ranked solve.
	Selector = knapsack.Selector
	// Greedy is the paper's 1−c/B optimizer.
	Greedy = knapsack.Greedy
	// RoundRobin is the stream-agnostic baseline of §3.2.
	RoundRobin = knapsack.RoundRobin
	// Candidate is one selectable packet (stream, value, cost): what a
	// Selector is handed.
	Candidate = knapsack.Candidate
)

// NewRandomSelector builds the random baseline.
func NewRandomSelector(seed int64) Selector { return knapsack.NewRandom(seed) }

// Datasets and training data.
type (
	// Campus1KConfig parameterizes the campus corpus.
	Campus1KConfig = dataset.Campus1KConfig
	// YTUGCConfig parameterizes the UGC corpus.
	YTUGCConfig = dataset.YTUGCConfig
	// FireNetConfig parameterizes the fire corpus.
	FireNetConfig = dataset.FireNetConfig
)

// Campus1K builds the 1108-camera campus fleet.
func Campus1K(cfg Campus1KConfig) []*Stream { return dataset.Campus1K(cfg) }

// YTUGC builds the 1179-video UGC corpus.
func YTUGC(cfg YTUGCConfig) []*Stream { return dataset.YTUGC(cfg) }

// FireNet builds the 64-clip mobile fire corpus.
func FireNet(cfg FireNetConfig) []*Stream { return dataset.FireNet(cfg) }

// CollectSamples produces labeled training samples from a fleet.
func CollectSamples(streams []*Stream, tasks []Task, window, rounds int) ([]Sample, error) {
	return dataset.Collect(streams, tasks, window, rounds)
}

// BalanceSamples subsamples to the paper's 1:1 offline protocol.
func BalanceSamples(samples []Sample, taskIndex int, seed int64) []Sample {
	return dataset.Balance(samples, taskIndex, seed)
}

// SplitSamples divides samples into train/test partitions.
func SplitSamples(samples []Sample, trainFrac float64, seed int64) (train, test []Sample) {
	return dataset.Split(samples, trainFrac, seed)
}

// Network streaming.
type (
	// StreamServer serves camera fleets over PGSP/TCP.
	StreamServer = stream.Server
	// StreamServerConfig parameterizes a StreamServer.
	StreamServerConfig = stream.ServerConfig
	// StreamClient consumes a PGSP session.
	StreamClient = stream.Client
)

// DialStream connects to a PGSP server.
func DialStream(addr string) (*StreamClient, error) { return stream.Dial(addr) }

// Pipeline and metrics.
type (
	// Engine runs the end-to-end concurrent pipeline.
	Engine = pipeline.Engine
	// EngineConfig parameterizes an Engine.
	EngineConfig = pipeline.Config
	// EngineReport summarizes an Engine run.
	EngineReport = pipeline.Report
	// RoundSource yields rounds of packets.
	RoundSource = pipeline.RoundSource
	// CurvePoint is one point of the filtering-rate/accuracy trade-off.
	CurvePoint = metrics.CurvePoint
)

// NewEngine builds a pipeline engine.
func NewEngine(cfg EngineConfig) (*Engine, error) { return pipeline.New(cfg) }

// NewLocalSource feeds rounds from an in-process fleet.
func NewLocalSource(streams []*Stream, rounds int) RoundSource {
	return pipeline.NewLocalSource(streams, rounds)
}

// NewNetSource feeds rounds from a PGSP client.
func NewNetSource(c *StreamClient) RoundSource { return pipeline.NewNetSource(c) }

// TradeoffCurve sweeps the confidence threshold over scored samples
// (Fig 9): labels[i] is true when sample i was necessary.
func TradeoffCurve(scores []float64, labels []bool) ([]CurvePoint, error) {
	return metrics.Curve(scores, labels)
}

// FilterRateAt returns the best filtering rate at a target accuracy.
func FilterRateAt(points []CurvePoint, targetAccuracy float64) (float64, bool) {
	return metrics.FilterRateAt(points, targetAccuracy)
}
