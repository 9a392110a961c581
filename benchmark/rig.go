package main

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"packetgame/internal/core"
	"packetgame/internal/decode"
	"packetgame/internal/infer"
	"packetgame/internal/metrics"
	"packetgame/internal/pipeline"
	"packetgame/internal/predictor"
)

// rig is one system under test built around a pipeline.Engine: the
// generator, the probe and its wrappers, the gate and the engine. The two
// closed-loop engine workloads use it directly; replay-pgsp swaps the feed
// for a network source, and cluster-loopback uses one as its single-gate
// oracle.
type rig struct {
	spec   workloadSpec
	gen    *generator
	p      *probe
	feed   *blockFeed
	pred   *predictor.Predictor
	gate   *probeGate
	eng    *pipeline.Engine
	stages *metrics.StageSet // traced runs only

	blocks int // timed blocks to run
	br     bracket
}

// gateConfig is the gate every workload runs: temporal estimator,
// exploration bonus, dependency-aware costs and circuit breakers, with the
// contextual predictor (I+P+temporal views) where the workload has one.
func gateConfig(spec workloadSpec, pred *predictor.Predictor) core.Config {
	return core.Config{
		Streams:     spec.streams,
		Window:      5,
		Budget:      spec.budget(),
		Predictor:   pred,
		UseTemporal: true,
		// The defaults, spelled out: the cluster ships this struct to its
		// workers by gob, which drops a pointer to an all-zero value.
		Breaker: &core.BreakerConfig{FailureThreshold: 3, GapThreshold: 50, Cooldown: 25},
	}
}

// newRigParts builds the generator, predictor, probe and wrapped gate.
func newRigParts(spec workloadSpec, seed int64, traced bool, blocks, mark int) (*rig, error) {
	r := &rig{spec: spec, blocks: blocks}
	r.gen = newGenerator(spec, seed, runtime.GOMAXPROCS(0), mark)
	if spec.predictor {
		pred, err := trainPredictor(r.gen.fps)
		if err != nil {
			return nil, err
		}
		r.pred = pred
	}
	return r, r.assemble(traced, mark)
}

// assemble builds the probe, the wrapped gate and, for a traced run, the
// tracer and stage counters.
func (r *rig) assemble(traced bool, mark int) error {
	gate, err := core.NewGate(gateConfig(r.spec, r.pred))
	if err != nil {
		return err
	}
	r.p = newProbe(r.spec.streams, r.spec.maxSelected(), mark)
	r.gate = &probeGate{Gate: gate, p: r.p}
	if traced {
		tr, err := newTracer(r.p, r.spec, r.pred)
		if err != nil {
			return err
		}
		r.p.tr = tr
		r.stages = &metrics.StageSet{}
	}
	return nil
}

// engineConfig is the pipeline configuration shared by every engine the
// benchmark builds; the caller supplies the source.
func (r *rig) engineConfig(src pipeline.RoundSource) pipeline.Config {
	return pipeline.Config{
		Source:      src,
		Gate:        r.gate,
		Task:        infer.PersonCounting{},
		Workers:     decodeWorkers,
		Pipelined:   r.spec.pipelined,
		MaxInFlight: r.spec.inFlight,
		Stages:      r.stages,
		WrapDecoder: func(d decode.PacketDecoder) decode.PacketDecoder {
			return &probeDecoder{inner: d, p: r.p}
		},
	}
}

// newRig builds a closed-loop engine workload and warms it up: everything
// setup_s covers.
func newRig(spec workloadSpec, seed int64, traced bool, blocks, mark int) (*rig, error) {
	r, err := newRigParts(spec, seed, traced, blocks, mark)
	if err != nil {
		return nil, err
	}
	r.feed = &blockFeed{p: r.p, m: spec.streams}
	var src pipeline.RoundSource = sparseSource{r.feed}
	if spec.dense {
		src = denseSource{r.feed}
	}
	r.eng, err = pipeline.New(r.engineConfig(src))
	if err != nil {
		return nil, err
	}
	if err := r.runBlock(warmRounds, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

// collectOnce runs fn — generating a block and whatever else happens between
// two timed blocks — with the collector off, then collects exactly once, so
// the clock starts on a heap free of generator garbage. Exactly once
// matters: a sync.Pool survives one collection and is emptied by two, and
// the system must not start a block with pools the harness emptied.
func collectOnce(fn func()) {
	percent := debug.SetGCPercent(-1)
	fn()
	runtime.GC()
	debug.SetGCPercent(percent)
}

// runBlock generates n rounds outside the timed region and runs them.
func (r *rig) runBlock(n int, timed bool) error {
	var blk *block
	collectOnce(func() {
		blk = r.gen.next(n)
		from := 0
		if !timed {
			from = n
		}
		r.p.load(blk, from)
	})
	if timed {
		r.br.start()
	}
	_, err := r.eng.Run(n)
	r.br.stop(n, blk.packets())
	if err != nil {
		r.p.fail(err)
	}
	if r.p.decided != n {
		r.p.fail(fmt.Errorf("engine ran %d of %d rounds", r.p.decided, n))
	}
	r.p.finishBlock()
	return err
}

func (r *rig) run() error {
	for i := 0; i < r.blocks; i++ {
		if err := r.runBlock(r.spec.blockSize, true); err != nil {
			return err
		}
	}
	return nil
}

// heapLiveMB drops the generator's state, forces a GC and reads the live
// heap: what the system keeps per fleet, not what the harness generated.
func (r *rig) heapLiveMB() float64 {
	r.gen.fleet = nil
	r.p.blk = nil
	if r.feed != nil {
		r.feed.cur = nil
	}
	mb := liveHeapMB()
	runtime.KeepAlive(r.eng)
	runtime.KeepAlive(r.gate)
	return mb
}

// liveHeapMB reads what is still allocated after two forced GCs: the second
// empties the sync.Pool victim caches, whose contents depend on timing.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func (r *rig) close() {}

func (r *rig) outcome() *outcome {
	o := &outcome{
		p: r.p, br: r.br,
		digest: r.gen.digest, markDigest: r.gen.markDigest, genMs: r.gen.genMsPerRound(),
	}
	r.fillTraced(o)
	o.heapMB = r.heapLiveMB()
	return o
}

// fillTraced copies the traced run's gate and stage counters.
func (r *rig) fillTraced(o *outcome) {
	tr := r.p.tr
	if tr == nil {
		return
	}
	o.tr = tr
	inc := r.gate.Gate.Incremental()
	o.inc = incReadings{
		scored:   inc.Scored - tr.incAtStart.Scored,
		forwards: inc.Forwards - tr.incAtStart.Forwards,
		hits:     inc.CacheHits - tr.incAtStart.CacheHits,
	}
	if r.pred != nil {
		o.flops = r.pred.FLOPs()
	}
	g, d, i := r.stages.Gate.Snapshot(), r.stages.Decode.Snapshot(), r.stages.Infer.Snapshot()
	o.stages = stageReadings{
		gateMs: g.MeanNanos() / 1e6, decodeMs: d.MeanNanos() / 1e6, inferMs: i.MeanNanos() / 1e6,
		maxDepth: max(g.MaxDepth, d.MaxDepth, i.MaxDepth),
	}
}
