// Package experiments regenerates every table and figure of the paper's
// evaluation (§2-§6) on the synthetic substrate. Each experiment prints a
// text table or series to the configured writer, alongside the paper's
// reported numbers so shape can be compared at a glance. The cmd/pgbench
// binary and the repository benchmarks are thin wrappers around this
// package.
package experiments

import (
	"fmt"
	"io"

	"packetgame/internal/codec"
	"packetgame/internal/dataset"
	"packetgame/internal/infer"
	"packetgame/internal/predictor"
)

// Options configures an experiment run.
type Options struct {
	// Out receives the experiment's report.
	Out io.Writer
	// Seed drives all randomness (default 1).
	Seed int64
	// Scale in (0,1] shrinks fleet sizes and durations for quick runs.
	// 1.0 reproduces the paper-scale configuration. Default 1.
	Scale float64
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	return o
}

// scaled shrinks n by the scale factor with a floor.
func (o Options) scaled(n, min int) int {
	v := int(float64(n) * o.Scale)
	if v < min {
		v = min
	}
	return v
}

func (o Options) printf(format string, args ...interface{}) {
	fmt.Fprintf(o.Out, format, args...)
}

// Experiment is a runnable reproduction of one table or figure.
type Experiment struct {
	Name  string
	Title string
	Run   func(Options) error
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"fig2", "Fig 2: module throughput and potential concurrency", Fig2},
		{"fig3", "Fig 3: packet-size signal vs residual features", Fig3},
		{"fig4", "Fig 4: diurnal necessity and round-robin vs optimal", Fig4},
		{"fig9", "Fig 9: offline filtering-rate vs accuracy curves", Fig9},
		{"tab3", "Tab 3: budget saving and concurrency at 90% accuracy", Tab3},
		{"fig10", "Fig 10: online accuracy over a day at fixed budget", Fig10},
		{"tab4", "Tab 4: plug-in overheads (FLOPs, latency)", Tab4},
		{"fig11", "Fig 11: multi-task extension", Fig11},
		{"fig12", "Fig 12: sensitivity to training size", Fig12},
		{"fig13", "Fig 13: window length effects", Fig13},
		{"fig14", "Fig 14: codec effects", Fig14},
		{"extreme", "§6.4: extreme bitrate and GOP cases", Extreme},
		{"tab5", "Tab 5: complementary method comparison", Tab5},
		{"regret", "Thm 1: online regret growth", Regret},
		{"pipe", "Engine round overlap: pipelined vs one-round-at-a-time throughput", Pipe},
		{"scale", "Churn-scaled Decide: per-round cost vs fleet size and window churn", Scale},
		{"lemma1", "Lemma 1: optimizer approximation ratio", Lemma1},
		{"ablate", "Design-choice ablations beyond the paper's", Ablate},
		{"chaos", "Robustness: gating under injected faults, breakers, and self-healing ingest", Chaos},
		{"overload", "Overload soak: diurnal+chaos load vs the budget governor and degradation ladder", Overload},
		{"replay", "pgcap corpus: decision-trace determinism audits and timestamp-preserving replay fidelity", Replay},
		{"cluster", "Distributed gating cluster: chaos kill/rejoin vs stable recall, SLO, and determinism", Cluster},
		{"failover", "Coordinator fail-over: standby election, orphan-mode workers, oracle re-convergence", Failover},
	}
}

// ByName finds an experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// streamsFor builds the paper-assigned corpus for a task: Campus1K for
// PC/AD, YT-UGC for SR, FireNet for FD. Offline corpora are non-diurnal so
// labels are dense; online experiments build diurnal fleets themselves.
func streamsFor(task infer.Task, n int, seed int64) []*codec.Stream {
	switch task.Name() {
	case "SR":
		return dataset.YTUGC(dataset.YTUGCConfig{Videos: n, Seed: seed})
	case "FD":
		return dataset.FireNet(dataset.FireNetConfig{Videos: n, Seed: seed})
	default:
		streams := dataset.Campus1K(dataset.Campus1KConfig{Cameras: n, Seed: seed})
		// Re-home the cameras to a busy, non-diurnal profile for dense
		// offline labels.
		for i := range streams {
			streams[i] = codec.NewStream(codec.SceneConfig{
				BaseActivity:    0.35,
				PersonRate:      0.12,
				PersonStay:      6,
				AnomalyRate:     90,
				AnomalyDuration: 20,
			}, codec.EncoderConfig{StreamID: i, Codec: codec.H265, GOPSize: 25, GOPPhase: i * 7},
				seed+int64(i)*7919)
		}
		return streams
	}
}

// taskData bundles the offline train/test sets of a task.
type taskData struct {
	task  infer.Task
	train []predictor.Sample // balanced 1:1
	test  []predictor.Sample // balanced 1:1
}

// collectTaskData builds balanced train/test sets for a task.
func collectTaskData(task infer.Task, o Options, streams, rounds int) (taskData, error) {
	trainStreams := streamsFor(task, streams, o.Seed+100)
	testStreams := streamsFor(task, streams, o.Seed+200)
	trainRaw, err := dataset.Collect(trainStreams, []infer.Task{task}, 5, rounds)
	if err != nil {
		return taskData{}, err
	}
	testRaw, err := dataset.Collect(testStreams, []infer.Task{task}, 5, rounds/2)
	if err != nil {
		return taskData{}, err
	}
	return taskData{
		task:  task,
		train: dataset.Balance(trainRaw, 0, o.Seed+300),
		test:  dataset.Balance(testRaw, 0, o.Seed+400),
	}, nil
}

// trainPredictor fits a predictor on the samples.
func trainPredictor(cfg predictor.Config, train []predictor.Sample, epochs int, seed int64) (*predictor.Predictor, error) {
	cfg.Seed = seed
	p, err := predictor.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := p.Train(train, predictor.TrainOptions{
		Epochs: epochs, BatchSize: 256, LR: 0.003, Seed: seed,
	}); err != nil {
		return nil, err
	}
	return p, nil
}

// fuseScores combines contextual predictor scores with the temporal view the
// way the deployed gate does: the predictor already consumed the temporal
// feature, so its output is the fused confidence.
func sampleScores(p *predictor.Predictor, samples []predictor.Sample) []float64 {
	return p.Scores(samples, 0)
}

// temporalScores extracts the idealized temporal-estimator score of each
// sample (the windowed mean of past labels, computed at collection time).
func temporalScores(samples []predictor.Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.F.Temporal
	}
	return out
}
