package main

import (
	"fmt"
	"time"
)

// benchVersion changes whenever a workload, a metric definition or the way
// a metric is measured changes; -compare refuses to diff across versions.
const benchVersion = 1

type workloadKind int

const (
	kindEngine  workloadKind = iota // closed loop, in-process pipeline.Engine
	kindReplay                      // open loop, capture → PGSP → engine
	kindCluster                     // closed loop, coordinator + workers over loopback
)

// workloadSpec fixes everything about a workload except the seed. The fleet
// sizes are half the ones the issue sketched for a 30 s run: the driver's
// time cap allows 20 s of measuring per run, and halving the fleet (not the
// round count) keeps ≥1000 timed rounds per closed-loop run on a 2-core host.
type workloadSpec struct {
	name string
	why  string
	kind workloadKind

	streams    int     // configured fleet m at scale 1
	activeFrac float64 // share of m active per round (1 = every camera, every round)
	stepFrac   float64 // how far the active window moves per round, as a share of m
	dense      bool    // hand rounds over as []*codec.Packet instead of codec.Round
	pipelined  bool    // staged engine
	inFlight   int     // feedback lag k
	predictor  bool    // contextual predictor on (false = the "Temporal" ablation)
	blockSize  int     // rounds pre-generated per timed block
	// roundMs is what one round costs the measuring phase on the reference
	// host, all in: the timed round plus generating it and the forced GC
	// between blocks (nothing but the round on the open-loop workload, whose
	// capture is generated during set-up). It only sizes the run: -seconds is
	// turned into a fixed number of timed blocks with it, so a run's round
	// count — and with it every hash, digest, filter_rate and recall —
	// depends on the workload and -seconds alone, never on how fast this run
	// happened to go.
	roundMs float64

	// Open-loop timing (kindReplay).
	fps         int
	burstRounds int
	idleGap     time.Duration
}

// warmRounds precede the first timed round of every workload: feature
// windows (w=5) fill, scratch buffers and free lists reach steady-state
// capacity, and the rotating windows complete most of a turn.
const warmRounds = 30

const (
	decodeWorkers  = 2
	clusterWorkers = 2
	maxProcs       = 4
)

var workloads = []workloadSpec{
	{
		name: "local-dense", kind: kindEngine,
		why:     "every packet moves its feature window, so the batched forward is ~95% of Decide; guards the dense Algorithm-1 entry point",
		streams: 1024, activeFrac: 1, dense: true, inFlight: 1, predictor: true, blockSize: 100, roundMs: 8.7,
	},
	{
		name: "sparse-temporal", kind: kindEngine,
		why:     "no forward runs, so core sweep, bandit, ranked knapsack under churn, trackers and the staged engine dominate; shows any O(m) residue",
		streams: 50000, activeFrac: 0.10, stepFrac: 0.025, pipelined: true, inFlight: 2, blockSize: 50, roundMs: 5.6,
	},
	{
		name: "replay-pgsp", kind: kindReplay,
		why:     "open loop at recorded bursty timing through capture, PGSP framing and client round assembly; the only latency that includes queueing",
		streams: 512, activeFrac: 1, pipelined: true, inFlight: 2, predictor: true,
		// One timed block per burst; a burst and its gap last 1.2 s.
		fps: 30, burstRounds: 30, idleGap: 200 * time.Millisecond, blockSize: 30, roundMs: 40,
	},
	{
		name: "cluster-loopback", kind: kindCluster,
		why:     "gating is cheap here, so PGCP encode/decode, gather wait, global solve, grant scatter, reports and the journal are the measured cost",
		streams: 16384, activeFrac: 0.25, stepFrac: 0.25 / 8, inFlight: 1, blockSize: 50, roundMs: 5.7,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the spec with its fleet multiplied by scale (the smoke
// test runs at 0.02). Round counts and timing shape are never scaled.
func (w workloadSpec) scaled(scale float64) workloadSpec {
	m := int(float64(w.streams)*scale + 0.5)
	if min := int(16/w.activeFrac + 0.5); m < min {
		m = min
	}
	w.streams = m
	return w
}

// timedBlocks is how many timed blocks a measuring phase of `seconds` holds.
func (w workloadSpec) timedBlocks(seconds float64) int {
	return max(1, int(seconds*1000/w.roundMs/float64(w.blockSize)+0.5))
}

// active is the number of cameras that deliver a packet each round.
func (w workloadSpec) active() int {
	a := int(float64(w.streams)*w.activeFrac + 0.5)
	if a < 1 {
		a = 1
	}
	if a > w.streams {
		a = w.streams
	}
	return a
}

// step is how many stream ids the active window advances per round.
func (w workloadSpec) step() int {
	if w.activeFrac >= 1 {
		return 0
	}
	s := int(float64(w.streams)*w.stepFrac + 0.5)
	if s < 1 {
		s = 1
	}
	return s
}

// budget is the per-round decode budget B = 4 + active/8.
func (w workloadSpec) budget() float64 { return 4 + float64(w.active())/8 }

// maxSelected bounds a round's selection: no packet costs less than a
// B-frame's 0.8 units.
func (w workloadSpec) maxSelected() int { return int(w.budget()/0.8) + 1 }

// metricDef names one metric. bound is the share of the baseline median by
// which an end-to-end metric may worsen before the driver, or -compare, says
// "regressed"; per-layer metrics carry no bound.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	// abs, when set, is what -compare holds the metric to instead of bound:
	// an absolute difference between the two medians. It is for the metrics
	// that repeat exactly at a given seed, which -compare always has (it
	// refuses sets taken at different seeds). bothWays makes a move in
	// either direction count.
	abs      float64
	bothWays bool
}

// endToEnd lists what a user of the gate sees. The driver's schema takes one
// relative bound per metric, for all workloads, and the driver measures
// spread over runs at *different* seeds, so each bound is sized to the
// workload on which the metric spreads most (README.md records the spreads):
//
//   - The timings carry the schema's maximum, 25%. They are read off the
//     whole run (totals, pooled quantiles) on a shared 2-core sandbox whose
//     speed moves by up to ±15% for minutes at a time; ten-run spreads were
//     2–20% in ordinary spells and 21–27% in the worst one seen.
//   - alloc repeats to 0.1% on three workloads, but local-dense allocates
//     only 8 KB a round and re-allocates one pooled 1.6 MB buffer (a
//     sync.Pool miss when the engine's goroutine changes P) zero to two
//     times a run, each worth 9% of the reading; ten-run spreads there were
//     8–13%. The one bound has to cover that: 25%.
//   - heap and filter_rate barely depend on the seed (≤ 0.3%, ≤ 0.02%) and
//     are held to 5% and 0.5% — the latter is the issue's ±0.005 absolute,
//     which -compare applies as such.
//   - recall depends on the seed through which frames are necessary: ±1% on
//     the closed-loop workloads, but 4–9% on replay-pgsp, whose 510 rounds
//     hold only ~2800 necessary frames. The driver's bound has to cover
//     that; -compare, at identical seeds, holds recall to the issue's −0.005.
//
// fail_ratio is reported by the benchmark's own output and guarded by
// -compare (any increase fails), but it is 0 on every healthy run and the
// driver's schema asks for metrics that are never 0 (a bound that is a share
// of a zero median bounds nothing), so BENCHMARK.json carries it through the
// result line's attempted/failed counts instead of as a twelfth bounded metric.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "packets_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "round_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "round_ms_p99", unit: "ms", better: "lower", bound: 0.25},
	{name: "decide_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "decide_ms_p99", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_round", unit: "ms", better: "lower", bound: 0.25},
	{name: "alloc_bytes_per_round", unit: "B", better: "lower", bound: 0.25},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "filter_rate", unit: "ratio", better: "higher", bound: 0.005, abs: 0.005, bothWays: true},
	{name: "recall", unit: "ratio", better: "higher", bound: 0.25, abs: 0.005},
}

const failRatio = "fail_ratio"

// perLayer lists the traced run's metrics, layer = module name. A layer
// that does not run in a workload reads 0 there.
var perLayer = []metricDef{
	{name: "core.decide_ms_p50", unit: "ms", better: "lower"},
	{name: "core.decide_ms_p99", unit: "ms", better: "lower"},
	{name: "core.feedback_ms_p50", unit: "ms", better: "lower"},
	{name: "core.decide_ns_per_packet", unit: "ns", better: "lower"},
	{name: "core.self_ms_per_round", unit: "ms", better: "lower"},
	{name: "core.cache_hit_rate", unit: "ratio", better: "higher"},
	{name: "core.forwards_per_round", unit: "count", better: "lower"},
	{name: "core.selected_per_round", unit: "count", better: "higher"},
	{name: "core.budget_util", unit: "ratio", better: "higher"},
	{name: "predictor.forward_ms_per_round", unit: "ms", better: "lower"},
	{name: "predictor.forward_ns_per_row", unit: "ns", better: "lower"},
	{name: "predictor.push_ns_per_packet", unit: "ns", better: "lower"},
	{name: "nn.flops_per_row", unit: "count", better: "lower"},
	{name: "nn.gflops_achieved", unit: "GFLOP/s", better: "higher"},
	{name: "bandit.read_ns_per_packet", unit: "ns", better: "lower"},
	{name: "bandit.push_ns_per_feedback", unit: "ns", better: "lower"},
	{name: "knapsack.select_ms_per_round", unit: "ms", better: "lower"},
	{name: "knapsack.offers_per_round", unit: "count", better: "lower"},
	{name: "knapsack.value_vs_fractional_opt", unit: "ratio", better: "higher"},
	{name: "decode.cost_ns_per_packet", unit: "ns", better: "lower"},
	{name: "decode.busy_ms_per_round", unit: "ms", better: "lower"},
	{name: "decode.packets_per_round", unit: "count", better: "higher"},
	{name: "decode.necessary_ratio", unit: "ratio", better: "higher"},
	{name: "infer.ns_per_frame", unit: "ns", better: "lower"},
	{name: "pipeline.run_ms_per_round", unit: "ms", better: "lower"},
	{name: "pipeline.self_ms_per_round", unit: "ms", better: "lower"},
	{name: "pipeline.gate_stage_mean_ms", unit: "ms", better: "lower"},
	{name: "pipeline.decode_stage_mean_ms", unit: "ms", better: "lower"},
	{name: "pipeline.infer_stage_mean_ms", unit: "ms", better: "lower"},
	{name: "pipeline.queue_depth_max", unit: "count", better: "lower"},
	{name: "pipeline.mallocs_per_round", unit: "count", better: "lower"},
	{name: "stream.ingest_lag_ms_p50", unit: "ms", better: "lower"},
	{name: "stream.ingest_lag_ms_p99", unit: "ms", better: "lower"},
	{name: "stream.parse_ns_per_packet", unit: "ns", better: "lower"},
	{name: "stream.wire_bytes_per_round", unit: "B", better: "lower"},
	{name: "stream.backlog_rounds_max", unit: "count", better: "lower"},
	{name: "capture.load_s", unit: "s", better: "lower"},
	{name: "capture.bytes_per_packet", unit: "B", better: "lower"},
	{name: "capture.span_err_pct", unit: "%", better: "lower"},
	{name: "cluster.decide_ms_p50", unit: "ms", better: "lower"},
	{name: "cluster.decide_ms_p99", unit: "ms", better: "lower"},
	{name: "cluster.settle_ms_p50", unit: "ms", better: "lower"},
	{name: "cluster.gap_ms_p50", unit: "ms", better: "lower"},
	{name: "cluster.wire_bytes_per_round", unit: "B", better: "lower"},
	{name: "cluster.journal_bytes_per_round", unit: "B", better: "lower"},
	{name: "cluster.oracle_match", unit: "ratio", better: "higher"},
	{name: "source.gen_ms_per_round", unit: "ms", better: "lower"},
	{name: "source.input_digest", unit: "count", better: "higher"},
	{name: "trace_overhead_pct", unit: "%", better: "lower"},
}
